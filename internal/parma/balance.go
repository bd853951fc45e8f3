package parma

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Config controls the multi-criteria partition improvement.
type Config struct {
	// Tolerance is the target peak imbalance (max/mean), e.g. 1.05 for
	// the paper's 5%.
	Tolerance float64
	// MaxIters bounds the diffusion iterations per entity type.
	MaxIters int
	// Log, when non-nil, receives per-iteration progress lines
	// (rank 0 only).
	Log io.Writer
	// NaiveSelection disables the Fig 9/10 boundary-shape cavity
	// ordering, selecting boundary cavities in arbitrary (but
	// deterministic) order instead. Exists for the ablation benchmark;
	// production callers leave it false.
	NaiveSelection bool
	// OnIter, when non-nil, is called after every completed migration
	// iteration with the dimension being balanced and the iteration
	// index — the checkpoint hook for restartable improvement runs. It
	// is collective: every rank calls it at the same point and it must
	// return the same decision on every rank (meshio.SaveCheckpoint
	// already behaves this way). A non-nil error aborts balancing.
	OnIter func(dm *partition.DMesh, dim, iter int) error
}

// DefaultConfig matches the paper's tests: 5% tolerance.
func DefaultConfig() Config {
	return Config{Tolerance: 1.05, MaxIters: 100}
}

// LevelResult records the outcome of balancing one entity dimension.
type LevelResult struct {
	Dim           int
	Iters         int
	Before, After float64 // peak imbalance max/mean
	MeanBefore    float64
	MeanAfter     float64
}

// Result summarizes a BalanceSafe run.
type Result struct {
	Priority Priority
	Levels   []LevelResult
	Elapsed  time.Duration
}

// BalanceSafe runs ParMA multi-criteria partition improvement on the
// distributed mesh (collective). The priority list is traversed in
// decreasing priority; for each entity type the migration schedule is
// computed, elements are selected with the adjacency-based rules of
// SelectCavities, and the cavities are migrated — one iteration — until
// the imbalance meets cfg.Tolerance or cfg.MaxIters is reached.
// Balancing a type never knowingly pushes a higher-priority type past
// tolerance on any destination part.
//
// An aborted migration (partition.ErrMigrateAborted) or a failing OnIter
// hook stops balancing on every rank and returns the same error
// everywhere, leaving the mesh in its last consistent state — the state
// of the most recent completed iteration. The partial Result accompanies
// the error.
func BalanceSafe(dm *partition.DMesh, pri Priority, cfg Config) (Result, error) {
	return balance(dm, pri, nil, cfg)
}

// WeightFunc gives an application-defined load per element — the
// adjacency-based analogue of graph node weights in graph partitioners.
// Predictive load balancing for mesh adaptation (paper §III-B) uses the
// estimated post-adaptation element count as the weight.
type WeightFunc func(m *mesh.Mesh, el mesh.Ent) float64

// BalanceWeights diffuses element weight instead of entity counts
// (collective): BalanceSafe on the elements alone, with each element
// counting as its weight. It returns the before/after weight imbalance
// and, like BalanceSafe, the same error on every rank when a migration
// aborts, the mesh left as the last completed iteration made it.
func BalanceWeights(dm *partition.DMesh, weight WeightFunc, cfg Config) (LevelResult, error) {
	res, err := balance(dm, Priority{{dm.Dim}}, weight, cfg)
	return res.Levels[0], err
}

// balance runs the priority list's levels; a nil weight balances entity
// counts, a non-nil one makes it each element's load.
func balance(dm *partition.DMesh, pri Priority, weight WeightFunc, cfg Config) (Result, error) {
	defer dm.Ctx.Span("parma.balance").End()
	start := time.Now()
	res := Result{Priority: pri}
	var loads [4][]float64 // every load gather's storage
	for li, level := range pri {
		for _, t := range level {
			lr, err := balanceDim(dm, pri, li, t, weight, cfg, &loads)
			res.Levels = append(res.Levels, lr)
			if err != nil {
				res.Elapsed = time.Since(start)
				return res, err
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func balanceDim(dm *partition.DMesh, pri Priority, li, t int, weight WeightFunc, cfg Config, loads *[4][]float64) (LevelResult, error) {
	lr := LevelResult{Dim: t}
	tr := dm.Ctx.Trace()
	// The allreduced imbalance is a live gauge in the run's registry.
	imbGauge := dm.Ctx.Metrics().Gauge("parma.imbalance")
	higher := pri.guarded(li, t)
	best := 0.0
	stale := 0
	// Diffusion can plateau for roughly a graph diameter of
	// iterations while load percolates across parts before the peak
	// drops, so the stagnation window scales with the part count.
	staleLimit := max(dm.NParts(), 10)
	// Each iteration opens with one gather: the loads it balances, and
	// the elements the previous iteration moved. That gather is also the
	// last one, whichever way balancing ends.
	var moved int64
	for iter := 0; ; iter++ {
		totalMoved := gatherAll(dm, moved, weight, loads)
		mean, imb := partition.Imbalance(loads[t])
		lr.After, lr.MeanAfter = imb, mean
		if iter >= cfg.MaxIters || (iter > 0 && totalMoved == 0) {
			// Out of iterations, or diffusion stalled.
			return lr, nil
		}
		// Every rank records the same allreduced imbalance, so the
		// summary's imbalance-vs-iteration series can come from any rank.
		tr.ParmaIter(t, iter, imb)
		imbGauge.Set(dm.Ctx.Rank(), imb)
		if iter == 0 {
			lr.Before, lr.MeanBefore = imb, mean
			best = imb
		}
		if cfg.Log != nil && dm.Ctx.Rank() == 0 {
			fmt.Fprintf(cfg.Log, "parma: dim %d iter %d imb %.4f mean %.1f\n", t, iter, imb, mean)
		}
		if imb <= cfg.Tolerance {
			lr.Iters = iter
			return lr, nil
		}
		// Stagnation cutoff: diffusion that keeps moving elements
		// without lowering the peak for several iterations is
		// oscillating at its limit; stop rather than churn.
		if imb < best-1e-9 {
			best = imb
			stale = 0
		} else {
			stale++
			if stale >= staleLimit {
				lr.Iters = iter
				return lr, nil
			}
		}
		// The iteration span covers plan construction, migration and the
		// checkpoint hook; the ParmaIter event above names the iteration.
		sp := dm.Ctx.Span("parma.iter")
		plans := buildPlans(dm, *loads, t, higher, pri, weight, cfg)
		moved = 0
		for _, p := range plans {
			moved += int64(len(p))
		}
		if err := partition.TryMigrate(dm, plans); err != nil {
			sp.End()
			lr.Iters = iter
			return lr, err
		}
		lr.Iters = iter + 1
		if cfg.OnIter != nil {
			if err := cfg.OnIter(dm, t, iter); err != nil {
				sp.End()
				return lr, err
			}
		}
		sp.End()
	}
}

// buildPlans computes this iteration's migration schedule: every
// locally heavy part sheds cavities to lightly loaded neighbor
// candidates.
func buildPlans(dm *partition.DMesh, loads [4][]float64, t int, higher []int, pri Priority, weight WeightFunc, cfg Config) []partition.Plan {
	var avg, maxLoad [4]float64
	for d := 0; d <= dm.Dim; d++ {
		avg[d], _ = partition.Imbalance(loads[d])
		maxLoad[d] = slices.Max(loads[d])
	}
	plans := make([]partition.Plan, len(dm.Parts))
	// Projected arrivals this iteration, by part, shared across local
	// parts so two local heavy parts don't overload the same candidate.
	arrivals := make([][4]float64, dm.NParts())
	// Lesser-priority dims: every dim processed after t.
	dims := pri.Dims()
	lesser := dims[slices.Index(dims, t)+1:]

	var peers []int32                 // remote-part scratch
	var closureBuf [64]mesh.Ent       // a cavity's dim-t closure
	cand := make([]bool, dm.NParts()) // candidate destinations of the part at hand
	for i, part := range dm.Parts {
		m := part.M
		self := m.Part()
		plans[i] = partition.Plan{}
		myLoad := loads[t][self]
		if myLoad <= cfg.Tolerance*avg[t] {
			continue // not heavily loaded
		}
		need := myLoad - avg[t]
		// Candidate parts: neighbors lightly loaded for t and for all
		// lesser-priority dims (absolutely or relatively).
		clear(cand)
		ncand := 0
		for _, q := range m.NeighborParts(0) {
			ok := lightlyLoaded(loads, avg, t, q, self)
			for _, l := range lesser {
				if !lightlyLoaded(loads, avg, l, q, self) {
					ok = false
					break
				}
			}
			if ok {
				cand[q] = true
				ncand++
			}
		}
		if ncand == 0 {
			continue
		}
		leaving := m.NewMarks()
		cavities := SelectCavities(m, t)
		if cfg.NaiveSelection {
			// Ablation: drop the shape-based preference, keep only the
			// anchor order.
			sort.SliceStable(cavities, func(a, b int) bool {
				return cavities[a].Anchor.Less(cavities[b].Anchor)
			})
		}
		for _, cav := range cavities {
			if need <= 0 {
				break
			}
			// Skip cavities overlapping already-planned elements.
			overlap := false
			for _, el := range cav.Els {
				if leaving.Has(el) {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			// Destination: a candidate part sharing the anchor. A
			// destination may fill up to the pairwise equalization
			// point with the sender, so diffusion keeps a gradient
			// flowing outward across relatively light neighbors.
			var dest int32 = -1
			var destLoad float64
			peers = m.AppendRemoteParts(cav.Anchor, peers[:0])
			for _, q := range peers {
				if !cand[q] {
					continue
				}
				load := loads[t][q] + arrivals[q][t]
				pairCap := (myLoad + loads[t][q]) / 2
				if load >= pairCap {
					continue // destination filled for this iteration
				}
				if dest < 0 || load < destLoad {
					dest = q
					destLoad = load
				}
			}
			if dest < 0 {
				continue
			}
			// Guard: the arrivals must not increase the imbalance of a
			// higher- or equal-priority dim — the destination may fill
			// up to tolerance or to the current global peak, whichever
			// is higher (the paper requires the guarded imbalance "is
			// not increased", not that it is already met).
			cl, closure := cavityLoads(m, cav.Els, weight, t, higher, closureBuf[:0])
			blocked := false
			for _, h := range higher {
				limit := max(cfg.Tolerance*avg[h], maxLoad[h])
				if loads[h][dest]+arrivals[dest][h]+cl[h] > limit {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			// Exact marginal reduction of dim t on this part.
			for _, el := range cav.Els {
				leaving.Set(el)
			}
			red := cl[t]
			if t < dm.Dim {
				red = float64(leavingCount(m, closure, &leaving))
			}
			if red <= 0 {
				// No reduction; undo.
				for _, el := range cav.Els {
					leaving.Clear(el)
				}
				continue
			}
			for _, el := range cav.Els {
				plans[i][el] = dest
			}
			for d := 0; d <= dm.Dim; d++ {
				arrivals[dest][d] += cl[d]
			}
			need -= red
		}
	}
	return plans
}

// lightlyLoaded implements the paper's candidate categories for dim d:
// absolutely lightly loaded (less load than the average) or relatively
// lightly loaded (less than the heavy part considered).
func lightlyLoaded(loads [4][]float64, avg [4]float64, d int, q, heavy int32) bool {
	return loads[d][q] < avg[d] || loads[d][q] < loads[d][heavy]
}

// gatherAll gathers every dimension's per-part loads, indexed by global
// part id, into loads, reusing their storage, and returns the sum over
// ranks of moved: one collective. A load is a part's entity count —
// exact in a float64 — or, in the element row when weight is non-nil,
// the weight summed over its non-ghost elements.
func gatherAll(dm *partition.DMesh, moved int64, weight WeightFunc, loads *[4][]float64) (total float64) {
	local := append(make([]float64, 0, 1+(dm.Dim+1)*dm.K), float64(moved))
	for d := 0; d <= dm.Dim; d++ {
		loads[d] = slices.Grow(loads[d][:0], dm.NParts())
		for _, part := range dm.Parts {
			local = append(local, partLoad(part, d, weight))
		}
	}
	for _, block := range pcu.Allgather(dm.Ctx, local) {
		total += block[0]
		for d := 0; d <= dm.Dim; d++ {
			loads[d] = append(loads[d], block[1+d*dm.K:1+(d+1)*dm.K]...)
		}
	}
	return total
}

// partLoad is one part's entry in gatherAll's row d.
func partLoad(p *partition.Part, d int, weight WeightFunc) float64 {
	if weight == nil || d < p.M.Dim() {
		return float64(p.Count(d))
	}
	w := 0.0
	for el := range p.M.Elements() {
		if !p.M.IsGhost(el) {
			w += weight(p.M, el)
		}
	}
	return w
}
