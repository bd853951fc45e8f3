package partition

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// TestResTableAgainstMap drives the migration residence table with
// random touch/add/lookup traffic and checks every run against a
// map[Ent][]int32 reference. The entity pool widens as the run goes, so
// late entities have slots beyond the index column grown so far (the
// entities unpackElements creates mid-call), and runs that grow after
// others were appended must relocate within the arena. Odd seeds reserve
// the way a migration does — the send side before the first entry, the
// receive side mid-run, too little both times — so that entries fill
// their first array, spill into the second and outgrow it.
func TestResTableAgainstMap(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := xorshift(seed * 0x9e3779b97f4a7c15)
		var col [mesh.TypeCount][]int32
		tab := resTable{idx: &col}
		if seed%2 == 1 {
			tab.reserve(300)
		}
		ref := map[mesh.Ent][]int32{}
		refAdd := func(e mesh.Ent, v int32) {
			s := append(ref[e], v)
			slices.Sort(s)
			ref[e] = slices.Compact(s)
		}
		for step := 0; step < 5000; step++ {
			if step == 1500 && seed%2 == 1 {
				first := &tab.entries[0]
				tab.reserve(400)
				if &tab.entries[0] != first {
					t.Fatalf("seed %d: the second reservation moved the first array", seed)
				}
			}
			e := mesh.Ent{
				T: mesh.Type(rng.next() % uint64(mesh.TypeCount)),
				I: int32(rng.next() % uint64(step/3+4)),
			}
			switch rng.next() % 3 {
			case 0:
				_, known := ref[e]
				if fresh := tab.touch(e); fresh == known {
					t.Fatalf("seed %d step %d: touch(%v) fresh=%v, reference known=%v", seed, step, e, fresh, known)
				}
				if !known {
					ref[e] = nil
				}
			case 1:
				for n := rng.next() % 5; n > 0; n-- {
					v := int32(rng.next() % 9)
					tab.add(e, v)
					refAdd(e, v)
				}
			case 2:
				want, known := ref[e]
				if (tab.entry(e) != nil) != known || !slices.Equal(tab.res(e), want) {
					t.Fatalf("seed %d step %d: %v: run %v, want %v (known %v)", seed, step, e, tab.res(e), want, known)
				}
			}
		}
		if n := len(tab.entries) + len(tab.more); n != len(ref) {
			t.Fatalf("seed %d: %d entries for %d reference entities", seed, n, len(ref))
		}
		if (len(tab.more) > 0) != (seed%2 == 1) {
			t.Fatalf("seed %d: %d entries in the second array", seed, len(tab.more))
		}
		for e, want := range ref {
			if en := tab.entry(e); en == nil || en.w != e.Pack() || !slices.Equal(tab.res(e), want) {
				t.Fatalf("seed %d: %v: entry %v run %v, want %v", seed, e, en, tab.res(e), want)
			}
		}
		tab.reset()
		for ty, c := range col {
			if i := slices.IndexFunc(c, func(v int32) bool { return v != 0 }); i >= 0 {
				t.Fatalf("seed %d: reset left slot %d of type %d indexed", seed, i, ty)
			}
		}
		if len(tab.entries)+len(tab.more) != 0 || len(tab.arena) != 0 {
			t.Fatalf("seed %d: reset kept %d+%d entries, %d arena cells", seed, len(tab.entries), len(tab.more), len(tab.arena))
		}
	}
}

// TestMigrateAllocsScaleWithMove pins the cost model of TryMigrate on a
// 2-rank × 4-part box: a bulk migration of every element stays under 10
// allocations and 4,000 bytes per moved element (payloads, rank buffers
// and the residence table made once at their size; regrown under append
// they cost 5,200), and moving one element allocates less than 1/20 of
// the bulk call's bytes — which fails as soon as a call sizes or
// reserves scratch by the mesh instead of by what moves.
func TestMigrateAllocsScaleWithMove(t *testing.T) {
	allocGate(t)
	model := gmi.Box(4, 1, 1)
	_, err := pcu.RunOpt(2, pcu.Options{StallTimeout: -1}, func(ctx *pcu.Ctx) error {
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 16, 6, 6)
		}, 4, 4)
		nparts := int32(dm.NParts())
		// measure runs one collective migration and returns the
		// process-wide allocation count and bytes it cost, and the
		// number of elements it moved.
		measure := func(plans []Plan) (allocs, bytes uint64, moved int64) {
			for _, p := range plans {
				moved += int64(len(p))
			}
			moved = pcu.SumInt64(ctx, moved)
			var before, after runtime.MemStats
			ctx.Barrier()
			if ctx.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			ctx.Barrier()
			if err := TryMigrate(dm, plans); err != nil {
				panic(err)
			}
			ctx.Barrier()
			if ctx.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, moved
		}
		bulk := make([]Plan, len(dm.Parts))
		for i, part := range dm.Parts {
			bulk[i] = Plan{}
			for el := range part.M.Elements() {
				bulk[i][el] = (part.M.Part() + 1) % nparts
			}
		}
		bulkAllocs, bulkBytes, bulkMoved := measure(bulk)
		// The delta is process-wide, so a stray allocation (a 512 KiB
		// runtime one shows up about one run in twelve) lands in it;
		// strays only add, so the least of three moves is the move.
		oneBytes := ^uint64(0)
		for range 3 {
			single := make([]Plan, len(dm.Parts))
			if ctx.Rank() == 0 {
				for el := range dm.Parts[0].M.Elements() {
					single[0] = Plan{el: 1}
					break
				}
			}
			_, b, n := measure(single)
			if n != 1 { // the same sum on every rank
				return fmt.Errorf("single move moved %d elements", n)
			}
			oneBytes = min(oneBytes, b)
		}
		if err := Verify(dm); err != nil {
			return err
		}
		if ctx.Rank() != 0 {
			return nil
		}
		if bulkMoved != 6*16*6*6 {
			return fmt.Errorf("bulk moved %d elements, want %d", bulkMoved, 6*16*6*6)
		}
		t.Logf("bulk: %d elements, %.2f allocs and %d B each; single: %d B", bulkMoved,
			float64(bulkAllocs)/float64(bulkMoved), bulkBytes/uint64(bulkMoved), oneBytes)
		if perMoved := float64(bulkAllocs) / float64(bulkMoved); perMoved >= 10 {
			return fmt.Errorf("bulk migration: %.1f allocations per moved element, want < 10", perMoved)
		}
		if perMoved := bulkBytes / uint64(bulkMoved); perMoved > 4000 {
			return fmt.Errorf("bulk migration: %d bytes per moved element, want <= 4000", perMoved)
		}
		if oneBytes*20 >= bulkBytes {
			return fmt.Errorf("one-element migration allocated %d B, bulk %d B: want under 1/20", oneBytes, bulkBytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
