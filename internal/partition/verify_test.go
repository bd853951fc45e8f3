package partition

import (
	"fmt"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// verifyWorld distributes a small tet box over the ranks, k parts each.
func verifyWorld(ctx *pcu.Ctx, k int) *DMesh {
	model := gmi.Box(4, 1, 1)
	return distributeByX(ctx, model.Model, func() *mesh.Mesh {
		return meshgen.Box3D(model, 4, 2, 2)
	}, k, 4)
}

// TestVerifyIsTwoOps pins the schedule of one Verify on 2 ranks x 3 parts
// of a 3D mesh: one exchange and one Allreduce.
func TestVerifyIsTwoOps(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := verifyWorld(ctx, 3)
		before := ctx.Ops()
		if err := Verify(dm); err != nil {
			return err
		}
		if n := ctx.Ops() - before; n != 2 {
			return fmt.Errorf("rank %d: Verify took %d blocking ops, want 2", ctx.Rank(), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsUnknownPart plants a link to a part that does not
// exist: the corrupt rank must name it, the clean rank a peer, and
// neither may panic.
func TestVerifyRejectsUnknownPart(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := verifyWorld(ctx, 1)
		m := dm.Parts[0].M
		if ctx.Rank() == 1 {
			for e := range m.Iter(0) {
				m.SetRemote(e, 99, e)
				break
			}
		}
		want := "peer rank"
		if ctx.Rank() == 1 {
			want = "unknown part"
		}
		if err := Verify(dm); err == nil || !strings.Contains(err.Error(), want) {
			return fmt.Errorf("rank %d: Verify returned %v, want an error naming %q", ctx.Rank(), err, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
