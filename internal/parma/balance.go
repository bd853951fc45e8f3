package parma

import (
	"fmt"
	"io"
	"sort"
	"time"

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
	defer dm.Ctx.Span("parma.balance").End()
	start := time.Now()
	res := Result{Priority: pri}
	for li, level := range pri {
		for _, t := range level {
			lr, err := balanceDim(dm, pri, li, t, cfg)
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

func balanceDim(dm *partition.DMesh, pri Priority, li, t int, cfg Config) (LevelResult, error) {
	lr := LevelResult{Dim: t}
	tr := dm.Ctx.Trace()
	// Metered runs record each iteration's duration and publish the
	// allreduced imbalance as a live gauge; handles are nil (no-op) for
	// unmetered runs.
	iterNs := dm.Ctx.Metrics().Histogram("parma.iter.ns")
	imbGauge := dm.Ctx.Metrics().Gauge("parma.imbalance")
	higher := pri.guarded(li, t)
	best := 0.0
	stale := 0
	// Diffusion can plateau for roughly a graph diameter of
	// iterations while load percolates across parts before the peak
	// drops, so the stagnation window scales with the part count.
	staleLimit := dm.NParts()
	if staleLimit < 10 {
		staleLimit = 10
	}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		counts := gatherAll(dm)
		mean, imb := partition.Imbalance(counts[t])
		// Every rank records the same allreduced imbalance, so the
		// summary's imbalance-vs-iteration series can come from any rank.
		tr.ParmaIter(t, iter, imb)
		imbGauge.Set(dm.Ctx.Rank(), imb)
		if iter == 0 {
			lr.Before, lr.MeanBefore = imb, mean
			best = imb
		}
		lr.After, lr.MeanAfter = imb, mean
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
				break
			}
		}
		// The iteration span covers plan construction, migration and the
		// checkpoint hook; its args carry the dimension, iteration index
		// and the imbalance the iteration set out to fix.
		iterStart := time.Now()
		tr.BeginArgs("parma.iter", int64(t), int64(iter), imb)
		endIter := func() {
			tr.End("parma.iter")
			iterNs.Observe(dm.Ctx.Rank(), int64(time.Since(iterStart)))
		}
		plans := buildPlans(dm, counts, t, higher, pri, li, cfg)
		moved := int64(0)
		for _, p := range plans {
			moved += int64(len(p))
		}
		totalMoved := sumAcross(dm, moved)
		if err := partition.TryMigrate(dm, plans); err != nil {
			endIter()
			lr.Iters = iter
			return lr, err
		}
		lr.Iters = iter + 1
		if cfg.OnIter != nil {
			if err := cfg.OnIter(dm, t, iter); err != nil {
				endIter()
				return lr, err
			}
		}
		endIter()
		if totalMoved == 0 {
			// Diffusion stalled; no point iterating further.
			break
		}
	}
	counts := gatherAll(dm)
	lr.MeanAfter, lr.After = 0, 0
	lr.MeanAfter, lr.After = partition.Imbalance(counts[t])
	return lr, nil
}

func sumAcross(dm *partition.DMesh, v int64) int64 {
	return pcu.SumInt64(dm.Ctx, v)
}

// buildPlans computes this iteration's migration schedule: every
// locally heavy part sheds cavities to lightly loaded neighbor
// candidates.
func buildPlans(dm *partition.DMesh, counts [4][]int64, t int, higher []int, pri Priority, li int, cfg Config) []partition.Plan {
	avg := make([]float64, 4)
	var maxCount [4]int64
	for d := 0; d <= dm.Dim; d++ {
		avg[d], _ = partition.Imbalance(counts[d])
		for _, c := range counts[d] {
			if c > maxCount[d] {
				maxCount[d] = c
			}
		}
	}
	plans := make([]partition.Plan, len(dm.Parts))
	// Projected arrivals this iteration, shared across local parts so
	// two local heavy parts don't overload the same candidate.
	arrivals := map[int32]*[4]int64{}
	arr := func(q int32) *[4]int64 {
		a := arrivals[q]
		if a == nil {
			a = &[4]int64{}
			arrivals[q] = a
		}
		return a
	}
	// Lesser-priority dims: every dim processed after t.
	dims := pri.Dims()
	var lesser []int
	seenT := false
	for _, d := range dims {
		if d == t {
			seenT = true
			continue
		}
		if seenT {
			lesser = append(lesser, d)
		}
	}

	var peers []int32 // remote-part scratch
	for i, part := range dm.Parts {
		m := part.M
		self := m.Part()
		plans[i] = partition.Plan{}
		myCount := counts[t][self]
		if float64(myCount) <= cfg.Tolerance*avg[t] {
			continue // not heavily loaded
		}
		need := float64(myCount) - avg[t]
		// Candidate parts: neighbors lightly loaded for t and for all
		// lesser-priority dims (absolutely or relatively).
		candidates := map[int32]bool{}
		for _, q := range m.NeighborParts(0) {
			ok := lightlyLoaded(counts, avg, t, q, self)
			for _, l := range lesser {
				if !lightlyLoaded(counts, avg, l, q, self) {
					ok = false
					break
				}
			}
			if ok {
				candidates[q] = true
			}
		}
		if len(candidates) == 0 {
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
			var destLoad int64
			peers = m.AppendRemoteParts(cav.Anchor, peers[:0])
			for _, q := range peers {
				if !candidates[q] {
					continue
				}
				load := counts[t][q] + arr(q)[t]
				pairCap := (float64(myCount) + float64(counts[t][q])) / 2
				if float64(load) >= pairCap {
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
			cc := closureCounts(m, cav.Els)
			blocked := false
			for _, h := range higher {
				limit := cfg.Tolerance * avg[h]
				if float64(maxCount[h]) > limit {
					limit = float64(maxCount[h])
				}
				proj := counts[h][dest] + arr(dest)[h] + int64(cc[h])
				if float64(proj) > limit {
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
			red := leavingCount(m, cav.Els, &leaving, t)
			if red <= 0 && t != dm.Dim {
				// No reduction; undo.
				for _, el := range cav.Els {
					leaving.Clear(el)
				}
				continue
			}
			for _, el := range cav.Els {
				plans[i][el] = dest
			}
			a := arr(dest)
			for d := 0; d <= dm.Dim; d++ {
				a[d] += int64(cc[d])
			}
			need -= float64(red)
		}
	}
	return plans
}

// lightlyLoaded implements the paper's candidate categories for dim d:
// absolutely lightly loaded (fewer entities than the average) or
// relatively lightly loaded (fewer than the heavy part considered).
func lightlyLoaded(counts [4][]int64, avg []float64, d int, q, heavy int32) bool {
	if float64(counts[d][q]) < avg[d] {
		return true
	}
	return counts[d][q] < counts[d][heavy]
}

// gatherAll gathers per-part counts for every dimension (collective).
func gatherAll(dm *partition.DMesh) [4][]int64 {
	var out [4][]int64
	for d := 0; d <= dm.Dim; d++ {
		out[d] = partition.GatherCounts(dm, d)
	}
	return out
}
