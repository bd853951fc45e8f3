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
// adjacency kernel landed (e183a64). meshio.Write stores every
// entity in iteration order with its downward ids, so the bytes move if
// any query changes its result order, if BuildFromVerts hands out
// different handles, or if adaptation or migration visits entities
// differently.
const (
	goldenAdaptSHA    = "0f659f44351923fd6964433443db599bab0ed25c7611859e34776108bff685c3"
	goldenMigrateSHA0 = "ec652ff941799852b4d456b27042bef084ea9cc0b69a723bb69d0d3b9744fa91"
	goldenMigrateSHA1 = "c5686a8248ab1d0a06887eb07dcb864d8fc56caf809c1c8109a87497c98b819a"
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
