package mesh

import (
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/vec"
)

// corruptCase builds a single-tet mesh, damages it with the named
// fixture, and asserts CheckConsistency reports the fixture's message.
func corruptCase(t *testing.T, name string) {
	t.Helper()
	for _, fx := range CorruptFixtures {
		if fx.Name != name {
			continue
		}
		m := newTestMesh()
		singleTet(m)
		if err := m.CheckConsistency(); err != nil {
			t.Fatalf("clean mesh rejected: %v", err)
		}
		fx.Corrupt(m)
		err := m.CheckConsistency()
		if err == nil {
			t.Fatalf("corruption %q not detected", name)
		}
		if !strings.Contains(err.Error(), fx.Want) {
			t.Fatalf("error %q does not mention %q", err, fx.Want)
		}
		return
	}
	t.Fatalf("no fixture %q", name)
}

func TestCheckDetectsDeadDownward(t *testing.T) { corruptCase(t, "dead downward") }
func TestCheckDetectsMissingUse(t *testing.T)   { corruptCase(t, "missing use") }
func TestCheckDetectsDanglingUse(t *testing.T)  { corruptCase(t, "dangling use") }

// The cyclic list has no use that fails a check of its own; the walk's
// cut-off one step past the reference count is what reports it.
func TestCheckDetectsCyclicUseList(t *testing.T) { corruptCase(t, "cyclic use list") }
func TestCheckDetectsUseInTwoLists(t *testing.T) { corruptCase(t, "use in two lists") }

func BenchmarkCheckConsistency(b *testing.B) {
	// A structured tet block large enough that the old
	// O(entities x valence) symmetry scan dominates.
	m := newTestMesh()
	grid := buildTetGrid(m, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.CheckConsistency(); err != nil {
			b.Fatal(err)
		}
	}
	_ = grid
}

// buildTetGrid fills m with an n x n x n vertex grid where every cube
// cell is split into 6 tets, and returns the element count.
func buildTetGrid(m *Mesh, n int) int {
	verts := make([]Ent, n*n*n)
	at := func(i, j, k int) Ent { return verts[(i*n+j)*n+k] }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				verts[(i*n+j)*n+k] = m.CreateVertex(gmi.NoRef,
					vec.V{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	// The standard 6-tet decomposition of each cube along the main
	// diagonal c0-c6.
	paths := [6][3]int{{1, 2, 6}, {2, 3, 6}, {3, 7, 6}, {7, 4, 6}, {4, 5, 6}, {5, 1, 6}}
	count := 0
	for i := 0; i < n-1; i++ {
		for j := 0; j < n-1; j++ {
			for k := 0; k < n-1; k++ {
				c := [8]Ent{
					at(i, j, k), at(i+1, j, k), at(i+1, j+1, k), at(i, j+1, k),
					at(i, j, k+1), at(i+1, j, k+1), at(i+1, j+1, k+1), at(i, j+1, k+1),
				}
				for _, p := range paths {
					m.BuildFromVerts(Tet, []Ent{c[0], c[p[0]], c[p[1]], c[p[2]]}, gmi.NoRef)
					count++
				}
			}
		}
	}
	return count
}
