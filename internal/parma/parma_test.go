package parma

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/zpart"
)

func TestParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"Vtx>Rgn", "Vtx>Rgn"},
		{"Vtx=Edge>Rgn", "Vtx=Edge>Rgn"},
		{"Edge>Rgn", "Edge>Rgn"},
		{"Edge=Face>Rgn", "Edge=Face>Rgn"},
		{"rgn", "Rgn"},
		// Equal priorities reorder to increasing dimension.
		{"Face=Edge>Rgn", "Edge=Face>Rgn"},
		{"v>e>f>r", "Vtx>Edge>Face>Rgn"},
	}
	for _, c := range cases {
		p, err := ParsePriority(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if p.String() != c.want {
			t.Fatalf("%q -> %q, want %q", c.in, p.String(), c.want)
		}
	}
	for _, bad := range []string{"", "Vtx>Bogus", "Vtx>Vtx", "Vtx=Vtx"} {
		if _, err := ParsePriority(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestPriorityHelpers(t *testing.T) {
	p, _ := ParsePriority("Vtx=Edge>Rgn")
	if dims := p.Dims(); len(dims) != 3 || dims[0] != 0 || dims[1] != 1 || dims[2] != 3 {
		t.Fatalf("Dims = %v", dims)
	}
	if h := p.higherPriority(0); len(h) != 0 {
		t.Fatalf("level 0 higher = %v", h)
	}
	if h := p.higherPriority(1); len(h) != 2 {
		t.Fatalf("level 1 higher = %v", h)
	}
}

func TestKnapsackAgainstBruteForce(t *testing.T) {
	brute := func(w []int64, cap int64) int64 {
		best := int64(0)
		n := len(w)
		for mask := 0; mask < 1<<n; mask++ {
			var s int64
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					s += w[i]
				}
			}
			if s <= cap && s > best {
				best = s
			}
		}
		return best
	}
	f := func(raw []uint8, capRaw uint8) bool {
		if len(raw) > 12 {
			raw = raw[:12]
		}
		w := make([]int64, len(raw))
		for i, x := range raw {
			w[i] = int64(x%50) + 1
		}
		cap := int64(capRaw%200) + 1
		got := Knapsack(w, cap)
		var sum int64
		seen := map[int]bool{}
		for _, i := range got {
			if i < 0 || i >= len(w) || seen[i] {
				return false
			}
			seen[i] = true
			sum += w[i]
		}
		if sum > cap {
			return false
		}
		return sum == brute(w, cap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKnapsackEdgeCases(t *testing.T) {
	if got := Knapsack(nil, 10); got != nil {
		t.Fatal("empty items")
	}
	if got := Knapsack([]int64{5}, 0); got != nil {
		t.Fatal("zero cap")
	}
	if got := Knapsack([]int64{100}, 10); got != nil {
		t.Fatal("oversized item taken")
	}
	got := Knapsack([]int64{3, 4, 5}, 7)
	var sum int64
	for _, i := range got {
		sum += []int64{3, 4, 5}[i]
	}
	if sum != 7 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestMaximalIndependentSet(t *testing.T) {
	groups := [][]int32{
		{0, 1, 2},
		{2, 3},
		{3, 4},
		{5},
		{0, 5},
	}
	sel := MaximalIndependentSet(groups)
	used := map[int32]bool{}
	for _, si := range sel {
		for _, p := range groups[si] {
			if used[p] {
				t.Fatal("not independent")
			}
			used[p] = true
		}
	}
	// Maximality: every unselected group conflicts with a selected one.
	selSet := map[int]bool{}
	for _, si := range sel {
		selSet[si] = true
	}
	for i, g := range groups {
		if selSet[i] {
			continue
		}
		conflict := false
		for _, p := range g {
			if used[p] {
				conflict = true
			}
		}
		if !conflict {
			t.Fatalf("group %d could have been added", i)
		}
	}
}

// buildImbalanced distributes a box mesh over nparts with a deliberate
// spike: part 0 steals half of its neighbor slab's elements, so part 0
// carries ~1.5x the average and part 1 ~0.5x.
func buildImbalanced(ctx *pcu.Ctx, nparts int, nx, ny, nz int) *partition.DMesh {
	model := gmi.Box(float64(nparts), 1, 1)
	var serial *mesh.Mesh
	if ctx.Rank() == 0 {
		serial = meshgen.Box3D(model, nx, ny, nz)
	}
	dm := partition.Adopt(ctx, model.Model, 3, serial, 1)
	var assign map[mesh.Ent]int32
	if ctx.Rank() == 0 {
		assign = map[mesh.Ent]int32{}
		for el := range serial.Elements() {
			c := serial.Centroid(el)
			p := int32(c.X)
			if int(p) >= nparts {
				p = int32(nparts - 1)
			}
			if p == 1 && c.Y < 0.5 {
				p = 0 // spike: part 0 takes half of part 1's slab
			}
			assign[el] = p
		}
	}
	if err := partition.TryMigrate(dm, partition.PlansFromAssignment(dm, assign)); err != nil {
		panic(err)
	}
	return dm
}

func TestBalanceRegions(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		dm := buildImbalanced(ctx, 4, 12, 4, 4)
		_, before := partition.EntityImbalance(dm, 3)
		if before < 1.4 {
			return fmt.Errorf("setup not imbalanced: %g", before)
		}
		pri, _ := ParsePriority("Rgn")
		cfg := Config{Tolerance: 1.05, MaxIters: 60}
		res, err := BalanceSafe(dm, pri, cfg)
		if err != nil {
			return err
		}
		_, after := partition.EntityImbalance(dm, 3)
		if after > 1.15 {
			return fmt.Errorf("imbalance %g -> %g (levels %+v)", before, after, res.Levels)
		}
		if err := partition.Verify(dm); err != nil {
			return err
		}
		if got := partition.GlobalCount(dm, 3); got != int64(6*12*4*4) {
			return fmt.Errorf("elements lost: %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBalanceVtxThenRgn(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		dm := buildImbalanced(ctx, 4, 12, 4, 4)
		pri, _ := ParsePriority("Vtx>Rgn")
		cfg := Config{Tolerance: 1.05, MaxIters: 60}
		res, err := BalanceSafe(dm, pri, cfg)
		if err != nil {
			return err
		}
		_, vImb := partition.EntityImbalance(dm, 0)
		_, rImb := partition.EntityImbalance(dm, 3)
		if vImb > 1.25 {
			return fmt.Errorf("vertex imbalance %g (levels %+v)", vImb, res.Levels)
		}
		if rImb > 1.25 {
			return fmt.Errorf("region imbalance %g (levels %+v)", rImb, res.Levels)
		}
		// Balancing must not lose entities.
		if partition.GlobalCount(dm, 0) != int64(13*5*5) {
			return fmt.Errorf("vertices lost")
		}
		return partition.Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelectCavitiesOnDistributedMesh(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		var serial *mesh.Mesh
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 4, 2, 2)
		}
		dm := partition.Adopt(ctx, model.Model, 3, serial, 1)
		var assign map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			assign = map[mesh.Ent]int32{}
			for el := range serial.Elements() {
				if serial.Centroid(el).X >= 1 {
					assign[el] = 1
				}
			}
		}
		if err := partition.TryMigrate(dm, partition.PlansFromAssignment(dm, assign)); err != nil {
			return err
		}
		m := dm.Parts[0].M
		for _, dim := range []int{0, 1, 2, 3} {
			cavs := SelectCavities(m, dim)
			if len(cavs) == 0 {
				return fmt.Errorf("dim %d: no cavities", dim)
			}
			for i, c := range cavs {
				if len(c.Els) == 0 {
					return fmt.Errorf("empty cavity")
				}
				if !m.IsShared(c.Anchor) {
					return fmt.Errorf("anchor %v not on part boundary", c.Anchor)
				}
				if i > 0 && cavs[i-1].Score < c.Score {
					return fmt.Errorf("scores not descending")
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHeavyPartSplit(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		// One giant part (0) and three tiny neighbors: diffusion is slow
		// here, splitting is the designed remedy.
		model := gmi.Box(4, 1, 1)
		var serial *mesh.Mesh
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 16, 3, 3)
		}
		dm := partition.Adopt(ctx, model.Model, 3, serial, 1)
		var assign map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			assign = map[mesh.Ent]int32{}
			for el := range serial.Elements() {
				c := serial.Centroid(el)
				switch {
				case c.X < 3.4:
					assign[el] = 0
				case c.X < 3.6:
					assign[el] = 1
				case c.X < 3.8:
					assign[el] = 2
				default:
					assign[el] = 3
				}
			}
		}
		if err := partition.TryMigrate(dm, partition.PlansFromAssignment(dm, assign)); err != nil {
			return err
		}
		_, before := partition.EntityImbalance(dm, 3)
		if before < 2.0 {
			return fmt.Errorf("setup imbalance only %g", before)
		}
		cfg := Config{Tolerance: 1.05, MaxIters: 20}
		res := HeavyPartSplit(dm, cfg)
		if res.Merges == 0 || res.SplitPieces == 0 {
			return fmt.Errorf("split did nothing: %+v", res)
		}
		if res.After >= before*0.7 {
			return fmt.Errorf("split ineffective: %g -> %g", before, res.After)
		}
		if err := partition.Verify(dm); err != nil {
			return err
		}
		// Follow with diffusion as the paper prescribes.
		pri, _ := ParsePriority("Rgn")
		if _, err := BalanceSafe(dm, pri, cfg); err != nil {
			return err
		}
		_, after := partition.EntityImbalance(dm, 3)
		if after > 1.3 {
			return fmt.Errorf("final imbalance %g", after)
		}
		return partition.Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBalanceReducesBoundaryOrKeepsModest(t *testing.T) {
	// The paper reports ParMA reduces total part-boundary entities; at
	// minimum it must not blow them up.
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		model := gmi.Box(4, 1, 1)
		var serial *mesh.Mesh
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 8, 4, 4)
		}
		dm := partition.Adopt(ctx, model.Model, 3, serial, 1)
		var assign map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			in, els := zpart.Centroids(serial)
			part := zpart.RCB(in, 4)
			assign = map[mesh.Ent]int32{}
			for i, el := range els {
				assign[el] = part[i]
			}
			// Perturb: move a chunk of part 1 to part 0.
			n := 0
			for i, el := range els {
				if part[i] == 1 && n < 150 {
					assign[el] = 0
					n++
				}
			}
		}
		if err := partition.TryMigrate(dm, partition.PlansFromAssignment(dm, assign)); err != nil {
			return err
		}
		tr0 := partition.GatherBoundaryTraffic(dm, 0)
		pri, _ := ParsePriority("Rgn")
		if _, err := BalanceSafe(dm, pri, Config{Tolerance: 1.05, MaxIters: 40}); err != nil {
			return err
		}
		tr1 := partition.GatherBoundaryTraffic(dm, 0)
		if tr1.SharedTotal > tr0.SharedTotal*3/2 {
			return fmt.Errorf("boundary grew badly: %d -> %d", tr0.SharedTotal, tr1.SharedTotal)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBalanceWeights(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		cfg := Config{Tolerance: 1.05, MaxIters: 60}
		dm := buildImbalanced(ctx, 4, 12, 4, 4)
		// Weight = 1 per element: reduces to count balancing.
		unit := func(m *mesh.Mesh, el mesh.Ent) float64 { return 1 }
		res, err := BalanceWeights(dm, unit, cfg)
		if err != nil {
			return err
		}
		if res.Before < 1.3 {
			return fmt.Errorf("setup not imbalanced: %g", res.Before)
		}
		if res.After > 1.15 {
			return fmt.Errorf("weighted balance failed: %g -> %g", res.Before, res.After)
		}
		if err := partition.Verify(dm); err != nil {
			return err
		}
		// The same run as region balancing, decision for decision.
		ref := buildImbalanced(ctx, 4, 12, 4, 4)
		refRes, err := BalanceSafe(ref, Priority{{3}}, cfg)
		if err != nil {
			return err
		}
		if res != refRes.Levels[0] {
			return fmt.Errorf("unit weights gave %+v, region balancing %+v", res, refRes.Levels[0])
		}
		got, want := partition.GatherCounts(dm, 3), partition.GatherCounts(ref, 3)
		if !slices.Equal(got, want) {
			return fmt.Errorf("unit weights left element counts %v, region balancing %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBalanceWeightsReturnsAbort: a wire fault that outlasts the retry
// budget inside the first iteration's migration comes back from
// BalanceWeights as the migration's abort, the same on both ranks, with
// the mesh still verifying.
func TestBalanceWeightsReturnsAbort(t *testing.T) {
	topo := hwtopo.Cluster(2, 1) // off-node, so the exchange is framed and checked
	unit := func(m *mesh.Mesh, el mesh.Ent) float64 { return 1 }
	var base [2]int64
	if _, err := pcu.RunOpt(2, pcu.Options{Topo: topo}, func(ctx *pcu.Ctx) error {
		buildImbalanced(ctx, 2, 8, 2, 2)
		base[ctx.Rank()] = ctx.Ops()
		return nil
	}); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	// The first iteration: +1 the gather, +2 the migration's first
	// residence round.
	plan := &pcu.FaultPlan{Faults: []pcu.Fault{{Rank: 0, Op: base[0] + 2, Kind: pcu.FaultCorrupt, Sticky: true}}}
	_, err := pcu.RunOpt(2, pcu.Options{Topo: topo, Faults: plan}, func(ctx *pcu.Ctx) error {
		dm := buildImbalanced(ctx, 2, 8, 2, 2)
		_, err := BalanceWeights(dm, unit, Config{Tolerance: 1.05, MaxIters: 20})
		if !errors.Is(err, partition.ErrMigrateAborted) {
			return fmt.Errorf("rank %d: want ErrMigrateAborted, got %v", ctx.Rank(), err)
		}
		if all := pcu.Allgather(ctx, err.Error()); all[0] != all[1] {
			return fmt.Errorf("the ranks disagree: %q vs %q", all[0], all[1])
		}
		return partition.Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBalanceWeightsNonUniform(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		// Counts are balanced but weights are not: elements at low x
		// are 5x heavier, so part 0 must shed elements.
		model := gmi.Box(4, 1, 1)
		var serial *mesh.Mesh
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 12, 4, 4)
		}
		dm := partition.Adopt(ctx, model.Model, 3, serial, 1)
		var assign map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			assign = map[mesh.Ent]int32{}
			for el := range serial.Elements() {
				p := int32(serial.Centroid(el).X)
				if p > 3 {
					p = 3
				}
				assign[el] = p
			}
		}
		if err := partition.TryMigrate(dm, partition.PlansFromAssignment(dm, assign)); err != nil {
			return err
		}
		heavy := func(m *mesh.Mesh, el mesh.Ent) float64 {
			if m.Centroid(el).X < 1 {
				return 5
			}
			return 1
		}
		res, err := BalanceWeights(dm, heavy, Config{Tolerance: 1.10, MaxIters: 80})
		if err != nil {
			return err
		}
		if res.Before < 1.5 {
			return fmt.Errorf("setup weight imbalance only %g", res.Before)
		}
		if res.After >= res.Before-0.3 {
			return fmt.Errorf("no weight improvement: %g -> %g", res.Before, res.After)
		}
		// Element counts may now be imbalanced -- that is the point of
		// application-defined weights.
		return partition.Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSelectCavitiesAllocs: the face and region rules allocate a fixed
// number of times per call, not once per cavity — every cavity's
// elements live in one array sized before it is filled.
func TestSelectCavitiesAllocs(t *testing.T) {
	model := gmi.Vessel(10, 1, 0.6, 1.2)
	serial := meshgen.Vessel3D(model, 12, 6)
	g, _ := zpart.DualGraph(serial)
	assign := zpart.MLGraph(g, 4)
	var m *mesh.Mesh
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		var sm *mesh.Mesh
		if ctx.Rank() == 0 {
			sm = serial
		}
		dm, err := partition.Distribute(ctx, model.Model, 3, sm, assign, 2)
		if ctx.Rank() == 0 {
			m = dm.Parts[0].M
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Under the race detector a call allocates once more.
	limit := 3.0
	if raceEnabled {
		limit = 4
	}
	for _, dim := range []int{2, 3} {
		if n := len(SelectCavities(m, dim)); n < 100 {
			t.Fatalf("dim %d: %d cavities, too few to tell a per-cavity allocation", dim, n)
		}
		if got := testing.AllocsPerRun(10, func() { SelectCavities(m, dim) }); got > limit {
			t.Errorf("dim %d: SelectCavities allocates %.0f times a call, want at most %.0f", dim, got, limit)
		}
	}
}

// TestBalanceGathersOncePerIteration: every balancing iteration opens
// with exactly one collective — the load gather that also carries the
// previous iteration's moves — and each level ends on that gather.
// Around the migrations, a level of i iterations costs i+1 ops, for
// entity counts and for element weights alike.
func TestBalanceGathersOncePerIteration(t *testing.T) {
	pri, _ := ParsePriority("Vtx>Rgn")
	cfg := Config{Tolerance: 1.05, MaxIters: 60}
	weight := func(m *mesh.Mesh, el mesh.Ent) float64 { return 1 + m.Centroid(el).X }
	for _, c := range []struct {
		name    string
		balance func(*partition.DMesh) ([]LevelResult, error)
	}{
		{"BalanceSafe", func(dm *partition.DMesh) ([]LevelResult, error) {
			res, err := BalanceSafe(dm, pri, cfg)
			return res.Levels, err
		}},
		{"BalanceWeights", func(dm *partition.DMesh) ([]LevelResult, error) {
			lr, err := BalanceWeights(dm, weight, cfg)
			return []LevelResult{lr}, err
		}},
	} {
		err := pcu.Run(4, func(ctx *pcu.Ctx) error {
			dm := buildImbalanced(ctx, 4, 12, 4, 4)
			before := ctx.Ops()
			if err := partition.TryMigrate(dm, make([]partition.Plan, len(dm.Parts))); err != nil {
				return err
			}
			perMigration := ctx.Ops() - before
			before = ctx.Ops()
			levels, err := c.balance(dm)
			if err != nil {
				return err
			}
			ops := ctx.Ops() - before
			iters, want := 0, int64(0)
			for _, l := range levels {
				iters += l.Iters
				want += int64(l.Iters)*perMigration + int64(l.Iters) + 1
			}
			if iters < 2 {
				return fmt.Errorf("balancing took %d iterations, too few to tell", iters)
			}
			if ops != want {
				return fmt.Errorf("%d iterations over %d levels took %d ops, want %d (%d per migration + one gather per iteration and per level)",
					iters, len(levels), ops, want, perMigration)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}
