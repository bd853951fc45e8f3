package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// checkGidIndex compares the dimension's index with the oracle: same
// size, every oracle gid resolves to its entity, and the table's own
// count and load bound hold.
func checkGidIndex(p *Part, dim int, oracle map[int64]mesh.Ent) error {
	x := &p.byGid[dim]
	live := 0
	for _, h := range x.tab {
		if h != mesh.PackedNil {
			live++
		}
	}
	if live != len(oracle) || x.n != len(oracle) {
		return fmt.Errorf("index holds %d entries (n = %d), oracle %d", live, x.n, len(oracle))
	}
	if 2*x.n > len(x.tab) {
		return fmt.Errorf("%d entries in %d slots: more than half full", x.n, len(x.tab))
	}
	for gid, want := range oracle {
		if got, ok := p.FindGid(dim, gid); !ok || got != want {
			return fmt.Errorf("FindGid(%d) = %v, %v; oracle says %v", gid, got, ok, want)
		}
	}
	return nil
}

// TestGidIndexDifferential drives setGid / dropGid / FindGid and a
// map[int64]mesh.Ent through the same 200,000 seeded operations over the
// four region types: fresh gids, a live entity given a new gid (or its
// own again), dropped gids coming back on another entity, drops, and
// lookups of live, dropped and never-seen gids. The entity pool is small
// enough that the table sits near its load bound, so runs collide, wrap
// the end of the table and lose entries from their middle all the time;
// TestGidIndexWrappedRun below does the last two on purpose.
func TestGidIndexDifferential(t *testing.T) {
	const (
		dim     = 3
		perType = 300
		ops     = 200_000
	)
	types := mesh.TypesOfDim(dim)
	rng := rand.New(rand.NewSource(19))
	p := &Part{}
	oracle := map[int64]mesh.Ent{}
	var live []mesh.Ent // entities holding a gid
	var dropped []int64
	var nextSerial, nextFresh int64
	newGid := func() int64 {
		if len(dropped) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(dropped))
			g := dropped[i]
			dropped[i] = dropped[len(dropped)-1]
			dropped = dropped[:len(dropped)-1]
			return g
		}
		if rng.Intn(2) == 0 { // both shapes of id the layer hands out
			nextSerial++
			return nextSerial - 1
		}
		nextFresh++
		return int64(rng.Intn(4)+1)<<freshGidBase | nextFresh<<2 | int64(rng.Intn(4))
	}
	randomEnt := func() mesh.Ent {
		return mesh.Ent{T: types[rng.Intn(len(types))], I: int32(rng.Intn(perType))}
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 4: // set: fresh on a free entity, or a re-set of a live one
			e := randomEnt()
			gid := newGid()
			if old := p.Gid(e); old >= 0 {
				if rng.Intn(4) == 0 {
					gid = old // its own gid again
				} else {
					dropped = append(dropped, old)
				}
				delete(oracle, old)
			} else {
				live = append(live, e)
			}
			p.setGid(e, gid)
			oracle[gid] = e
		case r < 7 && len(live) > 0: // drop
			i := rng.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			gid := p.Gid(e)
			dropped = append(dropped, gid)
			delete(oracle, gid)
			p.dropGid(e)
			if p.Gid(e) != -1 {
				t.Fatalf("op %d: gid of dropped %v is %d", op, e, p.Gid(e))
			}
		default: // find
			var gid int64
			switch k := rng.Intn(3); {
			case k == 0 && len(live) > 0:
				gid = p.Gid(live[rng.Intn(len(live))])
			case k == 1 && len(dropped) > 0:
				gid = dropped[rng.Intn(len(dropped))]
			default:
				gid = rng.Int63()
			}
			got, ok := p.FindGid(dim, gid)
			want, wantOK := oracle[gid]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("op %d: FindGid(%d) = %v, %v; oracle says %v, %v", op, gid, got, ok, want, wantOK)
			}
		}
		if op%5000 == 0 {
			if err := checkGidIndex(p, dim, oracle); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := checkGidIndex(p, dim, oracle); err != nil {
		t.Fatal(err)
	}
	for d := range p.byGid {
		if d != dim && p.byGid[d].tab != nil {
			t.Errorf("dimension %d has a table though nothing of it was set", d)
		}
	}
	for len(live) > 0 {
		p.dropGid(live[len(live)-1])
		live = live[:len(live)-1]
	}
	if err := checkGidIndex(p, dim, map[int64]mesh.Ent{}); err != nil {
		t.Fatalf("after dropping everything: %v", err)
	}
}

// TestGidIndexWrappedRun builds one probe run across the end of a
// 16-slot table out of gids chosen by their home slot — 14, 14, 15, 15,
// 0 and 14 again, so the run is slots 14, 15, 0, 1, 2, 3 — and removes
// from its middle, its head and its wrapped tail in every order,
// checking after each removal that the rest still resolve.
func TestGidIndexWrappedRun(t *testing.T) {
	homes := []int{14, 14, 15, 15, 0, 14}
	pick := func(x *gidIndex) []int64 {
		var gids []int64
		next := int64(0)
		for _, h := range homes {
			for x.home(next) != h {
				next++
			}
			gids = append(gids, next)
			next++
		}
		return gids
	}
	perm := []int{0, 1, 2, 3, 4, 5}
	var orders [][]int
	var permute func(k int)
	permute = func(k int) {
		if k == len(perm) {
			orders = append(orders, append([]int(nil), perm...))
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)
	for _, order := range orders {
		p := &Part{}
		p.setGid(mesh.Ent{T: mesh.Quad, I: 99}, 1<<50) // makes the 16-slot table
		x := &p.byGid[2]
		p.dropGid(mesh.Ent{T: mesh.Quad, I: 99})
		gids := pick(x)
		oracle := map[int64]mesh.Ent{}
		ents := make([]mesh.Ent, len(gids))
		for i, gid := range gids {
			ents[i] = mesh.Ent{T: mesh.TypesOfDim(2)[i%2], I: int32(i)}
			p.setGid(ents[i], gid)
			oracle[gid] = ents[i]
		}
		if len(x.tab) != 16 {
			t.Fatalf("table has %d slots, the test is built for 16", len(x.tab))
		}
		for _, s := range []int{14, 15, 0, 1, 2, 3} {
			if x.tab[s] == mesh.PackedNil {
				t.Fatalf("slot %d is empty: the run does not wrap as built (%v)", s, x.tab)
			}
		}
		for _, i := range order {
			p.dropGid(ents[i])
			delete(oracle, gids[i])
			if err := checkGidIndex(p, 2, oracle); err != nil {
				t.Fatalf("removal order %v, after entry %d: %v", order, i, err)
			}
		}
	}
}

// TestGidIndexSteadyStateCap: once a bulk A->B->A round trip has taken
// every part to its high-water mark, a second one reallocates no gid
// index — a table grows by the live count alone, and removals leave
// nothing behind that would count toward it.
func TestGidIndexSteadyStateCap(t *testing.T) {
	model := gmi.Box(4, 1, 1)
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 16, 6, 6)
		}, 4, 4)
		caps := func() (c [][4]int) {
			for _, part := range dm.Parts {
				var pc [4]int
				for d := range part.byGid {
					pc[d] = cap(part.byGid[d].tab)
				}
				c = append(c, pc)
			}
			return c
		}
		if err := bulkRoundTrip(dm); err != nil {
			return err
		}
		warm := caps()
		if err := bulkRoundTrip(dm); err != nil {
			return err
		}
		if err := Verify(dm); err != nil {
			return err
		}
		for i, pc := range caps() {
			if pc != warm[i] {
				return fmt.Errorf("part %d: index capacities %v after the warm-up, %v one round trip later",
					dm.Parts[i].M.Part(), warm[i], pc)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
