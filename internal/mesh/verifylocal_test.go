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
	"github.com/fastmath/pumi-go/internal/telemetry"
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
// rank 1's part of a two-part mesh and checks that every distributed
// verifier — partition.Verify, which runs the local sweep once,
// partition.CheckDistributed and mesh.VerifyParallel, which each run it
// themselves — reports it there by the fixture's message and fails on
// the clean rank too.
func TestVerifyReportsLocalCorruption(t *testing.T) {
	verifiers := map[string]func(*partition.DMesh) error{
		"Verify":           partition.Verify,
		"CheckDistributed": partition.CheckDistributed,
		"VerifyParallel":   func(dm *partition.DMesh) error { return mesh.VerifyParallel(dm.Ctx, dm.Meshes()...) },
	}
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
				for _, name := range []string{"Verify", "CheckDistributed", "VerifyParallel"} {
					err := verifiers[name](dm)
					switch {
					case err == nil:
						return fmt.Errorf("%s passed on rank %d", name, ctx.Rank())
					case ctx.Rank() == 1 && !strings.Contains(err.Error(), fx.Want):
						return fmt.Errorf("%s on the corrupt rank: %q does not mention %q", name, err, fx.Want)
					case ctx.Rank() == 0 && !strings.Contains(err.Error(), "peer rank"):
						return fmt.Errorf("%s on the clean rank: %q does not blame a peer", name, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVerifyChecksEachPartOnce counts the CheckConsistency runs of the
// distributed verifiers on 2 ranks x 3 parts: Verify is CheckDistributed
// plus VerifyParallel in everything but the local sweep, which it runs
// once per part where the two alone run it once each.
func TestVerifyChecksEachPartOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	checks := reg.Counter("mesh.consistency-checks")
	var counted [3]int64
	_, err := pcu.RunOpt(2, pcu.Options{Metrics: reg}, func(ctx *pcu.Ctx) error {
		dm := halves(ctx, 3)
		for i, verify := range []func() error{
			func() error { return partition.Verify(dm) },
			func() error { return partition.CheckDistributed(dm) },
			func() error { return mesh.VerifyParallel(ctx, dm.Meshes()...) },
		} {
			ctx.Barrier()
			before := checks.Value()
			ctx.Barrier()
			if err := verify(); err != nil {
				return err
			}
			ctx.Barrier()
			if ctx.Rank() == 0 {
				counted[i] = checks.Value() - before
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counted != [3]int64{6, 6, 6} {
		t.Fatalf("CheckConsistency runs over 6 parts: Verify %d, CheckDistributed %d, VerifyParallel %d; want 6 each",
			counted[0], counted[1], counted[2])
	}
}
