package mesh

import (
	"go/build"
	"slices"
	"testing"
)

// TestMeshBelowRuntime keeps the serial mesh layer below the parallel
// runtime: no non-test file of this package imports pcu. Distributed
// checks live in the partition layer.
func TestMeshBelowRuntime(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(pkg.Imports, "github.com/fastmath/pumi-go/internal/pcu") {
		t.Fatalf("package mesh imports internal/pcu; imports: %v", pkg.Imports)
	}
}
