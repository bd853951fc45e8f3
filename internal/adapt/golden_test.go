package adapt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

// The hashes below were re-pinned when the mesh file became a shipment
// (partition's one entity format): the previous encoder applied to the
// same meshes still gave the hashes captured at the commit before the
// adjacency kernel landed (e183a64). They were re-pinned again when a
// record came to name its downward entities by position instead of by
// global id: the new files, each position rewritten as the gid it
// names, gave the previous hashes. meshio.Write stores every entity in
// iteration order with its downward entities, so the bytes move if any
// query changes its result order, if BuildFromVerts hands out different
// handles, or if adaptation or migration visits entities differently.
const (
	goldenAdaptSHA    = "f90af43118e3d7cd6ca5554f15a5e40f8e6b589fd3be40530b188a153f0b3a82"
	goldenMigrateSHA0 = "c0111e34d36359682b88d943a374863c9c9a27f2a3baf57095dae2b1fbd7c4b2"
	goldenMigrateSHA1 = "ab62de13aaa692e5e8d55fd98d6f8cecb40478b8e05a48ed6b28ad595660b7f9"
)

func meshSHA(m *mesh.Mesh) (string, error) {
	var buf bytes.Buffer
	if err := meshio.Write(&buf, m); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func TestGoldenAdaptBytes(t *testing.T) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 4, 4, 4)
	// A seeded slanted band: fine inside, coarse (coarser than the
	// initial mesh) outside, so one round both splits and collapses and
	// later creations reuse freed slots.
	rng := rand.New(rand.NewSource(7))
	n := vec.V{X: 1, Y: 0.3 * rng.Float64(), Z: 0.2 * rng.Float64()}
	off := 0.4 + 0.2*rng.Float64()
	size := func(p vec.V) float64 {
		if math.Abs(p.X*n.X+p.Y*n.Y+p.Z*n.Z-off) < 0.12 {
			return 0.12
		}
		return 0.7
	}
	splits := Refine(m, size, NopTransfer{}, 3)
	collapses := Coarsen(m, size, NopTransfer{}, 2)
	if splits == 0 || collapses == 0 {
		t.Fatalf("round did %d splits, %d collapses; want both", splits, collapses)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	got, err := meshSHA(m)
	if err != nil {
		t.Fatal(err)
	}
	if got != goldenAdaptSHA {
		t.Errorf("meshio.Write after refine+coarsen: sha256 %s, want %s", got, goldenAdaptSHA)
	}
}

func TestGoldenMigrateBytes(t *testing.T) {
	var got [2]string
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(1, 1, 1)
		var serial *mesh.Mesh
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 4, 4, 4)
		}
		dm := partition.Adopt(ctx, model.Model, 3, serial, 1)
		// A cuts at x = 0.5, B along the diagonal x + y = 1.
		var a map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			a = map[mesh.Ent]int32{}
			for el := range serial.Elements() {
				if serial.Centroid(el).X > 0.5 {
					a[el] = 1
				} else {
					a[el] = 0
				}
			}
		}
		if err := partition.TryMigrate(dm, partition.PlansFromAssignment(dm, a)); err != nil {
			return err
		}
		plan := func(dest func(c vec.V) int32) []partition.Plan {
			plans := make([]partition.Plan, len(dm.Parts))
			for i, part := range dm.Parts {
				plans[i] = partition.Plan{}
				for el := range part.M.Elements() {
					plans[i][el] = dest(part.M.Centroid(el))
				}
			}
			return plans
		}
		toB := func(c vec.V) int32 {
			if c.X+c.Y > 1 {
				return 1
			}
			return 0
		}
		toA := func(c vec.V) int32 {
			if c.X > 0.5 {
				return 1
			}
			return 0
		}
		if err := partition.TryMigrate(dm, plan(toB)); err != nil {
			return err
		}
		if err := partition.TryMigrate(dm, plan(toA)); err != nil {
			return err
		}
		if err := partition.Verify(dm); err != nil {
			return err
		}
		for _, part := range dm.Parts {
			sha, err := meshSHA(part.M)
			if err != nil {
				return err
			}
			id := part.M.Part()
			if id < 0 || int(id) >= len(got) {
				return fmt.Errorf("unexpected part id %d", id)
			}
			got[id] = sha
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range [2]string{goldenMigrateSHA0, goldenMigrateSHA1} {
		if got[id] != want {
			t.Errorf("part %d meshio.Write after A→B→A: sha256 %s, want %s", id, got[id], want)
		}
	}
}
