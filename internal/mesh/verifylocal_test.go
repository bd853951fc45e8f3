package mesh_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// halves distributes a small tet box over two ranks, k parts each, cut
// across x.
func halves(ctx *pcu.Ctx, k int) *partition.DMesh {
	model := gmi.Box(4, 1, 1)
	var serial *mesh.Mesh
	var assign map[mesh.Ent]int32
	if ctx.Rank() == 0 {
		serial = meshgen.Box3D(model, 4*k, 2, 2)
		assign = map[mesh.Ent]int32{}
		for el := range serial.Elements() {
			assign[el] = min(int32(serial.Centroid(el).X/2*float64(k)), int32(2*k-1))
		}
	}
	dm := partition.Adopt(ctx, model.Model, 3, serial, k)
	if err := partition.TryMigrate(dm, partition.PlansFromAssignment(dm, assign)); err != nil {
		panic(err)
	}
	return dm
}

// TestVerifyReportsLocalCorruption plants each corrupt-mesh fixture in
// rank 1's part of a two-part mesh and checks that partition.Verify
// reports it there by the fixture's message and fails on the clean rank
// too.
func TestVerifyReportsLocalCorruption(t *testing.T) {
	for _, fx := range mesh.CorruptFixtures {
		t.Run(fx.Name, func(t *testing.T) {
			err := pcu.Run(2, func(ctx *pcu.Ctx) error {
				dm := halves(ctx, 1)
				if err := partition.Verify(dm); err != nil {
					return fmt.Errorf("clean mesh rejected: %w", err)
				}
				if ctx.Rank() == 1 {
					fx.Corrupt(dm.Parts[0].M)
				}
				switch err := partition.Verify(dm); {
				case err == nil:
					return fmt.Errorf("Verify passed on rank %d", ctx.Rank())
				case ctx.Rank() == 1 && !strings.Contains(err.Error(), fx.Want):
					return fmt.Errorf("Verify on the corrupt rank: %q does not mention %q", err, fx.Want)
				case ctx.Rank() == 0 && !strings.Contains(err.Error(), "peer rank"):
					return fmt.Errorf("Verify on the clean rank: %q does not blame a peer", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVerifyChecksEachPartOnce counts the CheckConsistency runs of one
// partition.Verify on 2 ranks x 3 parts: one per part.
func TestVerifyChecksEachPartOnce(t *testing.T) {
	var counted int64
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		checks := ctx.Metrics().Counter("mesh.consistency-checks")
		dm := halves(ctx, 3)
		ctx.Barrier()
		before := checks.Value()
		ctx.Barrier()
		if err := partition.Verify(dm); err != nil {
			return err
		}
		ctx.Barrier()
		if ctx.Rank() == 0 {
			counted = checks.Value() - before
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counted != 6 {
		t.Fatalf("CheckConsistency runs over 6 parts: Verify %d, want 6", counted)
	}
}
