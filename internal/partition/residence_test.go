package partition

import (
	"fmt"
	"slices"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// refContribution is a copy's residence contribution by its definition:
// the destinations of every local element adjacent to e, a moving
// element's run in the table, this part for one that stays.
func refContribution(p *moving, e mesh.Ent, d int) []int32 {
	var out []int32
	for _, up := range p.M.AdjacentTo(e, d, nil) {
		dst := p.M.Part()
		if to := p.tab.res(up); len(to) > 0 {
			dst = to[0]
		}
		if !slices.Contains(out, dst) {
			out = append(out, dst)
		}
	}
	slices.Sort(out)
	return out
}

// checkStagedResidence compares, after both contribution rounds, the run
// every table entry of every part holds with the union of the reference
// contributions of all its copies, gathered from every rank by global id
// (collective). A moving element's run is its destination alone.
func checkStagedResidence(mg *migration) error {
	dm, d := mg.dm, mg.dm.Dim
	type key struct {
		dim int
		gid int64
	}
	var b pcu.Buffer
	for i := range mg.parts {
		p := &mg.parts[i]
		for _, seg := range [2][]resEntry{p.tab.entries, p.tab.more} {
			for _, en := range seg {
				if e := mesh.UnpackEnt(en.w); e.Dim() < d {
					b.Int32(int32(e.Dim()))
					b.Int64(p.Gid(e))
					b.Int32s(refContribution(p, e, d))
				}
			}
		}
	}
	want := map[key][]int32{}
	for _, raw := range pcu.Allgather(dm.Ctx, b.Raw()) {
		for r := pcu.NewReader(raw); !r.Empty(); {
			k := key{int(r.Int32()), r.Int64()}
			for _, q := range r.AppendInt32s(nil) {
				if !slices.Contains(want[k], q) {
					want[k] = append(want[k], q)
				}
			}
		}
	}
	checked := 0
	for i := range mg.parts {
		p := &mg.parts[i]
		for _, seg := range [2][]resEntry{p.tab.entries, p.tab.more} {
			for _, en := range seg {
				e := mesh.UnpackEnt(en.w)
				got := p.tab.res(e)
				var ref []int32
				if e.Dim() == d {
					for _, mv := range p.moves {
						if moveEnt(mv) == e {
							ref = []int32{int32(mv >> 32)}
						}
					}
				} else {
					ref = slices.Sorted(slices.Values(want[key{e.Dim(), p.Gid(e)}]))
				}
				if !slices.Equal(got, ref) {
					return fmt.Errorf("part %d: %v (gid %d) staged %v, upward walk gives %v", p.M.Part(), e, p.Gid(e), got, ref)
				}
				checked++
			}
		}
	}
	if pcu.SumInt64(dm.Ctx, int64(checked)) == 0 {
		return fmt.Errorf("no table entry checked")
	}
	return nil
}

// migrateChecked is TryMigrate with check run on the staged residences,
// between the abort vote on them and the shipment.
func migrateChecked(dm *DMesh, plans []Plan, check func(*migration) error) error {
	mg := newMigration(dm)
	defer mg.reset()
	if err := voteAbort(dm, mg.stageResidence(plans, nil), "staging residence updates"); err != nil {
		return err
	}
	checkErr := check(mg)
	mg.packShipment()
	if err := voteAbort(dm, catchStage(mg.receiveElements), "shipping element closures"); err != nil {
		rollbackCreated(mg.parts)
		return err
	}
	defer dm.suspendGuards()()
	mg.commit()
	return checkErr
}

// randomPlans draws one plan per local part in one of four shapes: a
// single element moved, every element planned with some mapped to their
// own part, the whole part moved to one destination, and a random
// scatter of about a third of the part.
func randomPlans(dm *DMesh, rng *xorshift) []Plan {
	plans := make([]Plan, len(dm.Parts))
	n := uint64(dm.NParts())
	for i, part := range dm.Parts {
		plan := Plan{}
		self := part.M.Part()
		els := slices.Collect(part.M.Elements())
		switch rng.next() % 4 {
		case 0:
			if len(els) > 0 {
				plan[els[rng.next()%uint64(len(els))]] = int32(rng.next() % n)
			}
		case 1:
			for _, el := range els {
				if rng.next()%2 == 0 {
					plan[el] = self
				} else {
					plan[el] = int32(rng.next() % n)
				}
			}
		case 2:
			q := int32(rng.next() % n)
			for _, el := range els {
				plan[el] = q
			}
		case 3:
			for _, el := range els {
				if rng.next()%3 == 0 {
					plan[el] = int32(rng.next() % n)
				}
			}
		}
		plans[i] = plan
	}
	return plans
}

// TestResidenceMatchesUpwardWalk holds the one-walk residence staging to
// its definition — an entity's new residence is the destinations of
// every element adjacent to any of its copies — over random plans on the
// mixed mesh (every region type, quads shared between unlike regions)
// and on a vessel that has been ghosted and unghosted.
func TestResidenceMatchesUpwardWalk(t *testing.T) {
	worlds := []struct {
		name  string
		world func(ctx *pcu.Ctx) (*DMesh, error)
	}{
		{"mixed", func(ctx *pcu.Ctx) (*DMesh, error) { return mixedWorld(ctx, false), nil }},
		{"ghosted-vessel", func(ctx *pcu.Ctx) (*DMesh, error) {
			model := gmi.Vessel(10, 1, 0.6, 1.2)
			var serial *mesh.Mesh
			var assign []int32
			if ctx.Rank() == 0 {
				serial = meshgen.Vessel3D(model, 8, 6)
				g, _ := zpart.DualGraph(serial)
				assign = zpart.MLGraph(g, 6)
			}
			dm, err := Distribute(ctx, model.Model, 3, serial, assign, 3)
			if err != nil {
				return nil, err
			}
			Ghost(dm, 2, 1)
			RemoveGhosts(dm)
			return dm, nil
		}},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			err := pcu.Run(2, func(ctx *pcu.Ctx) error {
				dm, err := w.world(ctx)
				if err != nil {
					return err
				}
				rng := xorshift(0x2545f4914f6cdd1d + uint64(ctx.Rank()))
				for round := range 12 {
					if err := migrateChecked(dm, randomPlans(dm, &rng), checkStagedResidence); err != nil {
						return fmt.Errorf("round %d: %w", round, err)
					}
				}
				return Verify(dm)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
