package parma

import (
	"sort"

	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// Heavy part splitting (paper §III-B): when diffusion cannot reduce
// large imbalance spikes — many small parts, or neighboring heavy parts
// after predictive load balancing — ParMA first merges lightly loaded
// parts to create empty parts (a 0-1 knapsack per part chooses the
// largest neighbor set that fits under the average; a maximal
// independent set resolves conflicting merges), then splits heavily
// loaded parts into the freed parts.

// Knapsack solves the 0-1 knapsack with value == weight (subset sum):
// it returns the indices of the items maximizing total weight without
// exceeding cap. Large capacities are scaled down to keep the DP small,
// trading exactness for speed exactly like practical implementations.
func Knapsack(weights []int64, cap int64) []int {
	if cap <= 0 || len(weights) == 0 {
		return nil
	}
	scale := int64(1)
	const maxCells = 1 << 14
	for cap/scale > maxCells {
		scale *= 2
	}
	w := make([]int64, len(weights))
	for i, x := range weights {
		w[i] = x / scale
	}
	c := int(cap / scale)
	// dp[j] = best exact total weight using a subset with scaled weight
	// sum j; take[i][j] records the choice for reconstruction.
	dp := make([]int64, c+1)
	reach := make([]bool, c+1)
	reach[0] = true
	take := make([][]bool, len(w))
	for i := range w {
		take[i] = make([]bool, c+1)
		wi := int(w[i])
		if wi > c || weights[i] > cap {
			continue
		}
		for j := c; j >= wi; j-- {
			if reach[j-wi] && dp[j-wi]+weights[i] <= cap && (!reach[j] || dp[j-wi]+weights[i] > dp[j]) {
				reach[j] = true
				dp[j] = dp[j-wi] + weights[i]
				take[i][j] = true
			}
		}
	}
	best, bestJ := int64(-1), -1
	for j := 0; j <= c; j++ {
		if reach[j] && dp[j] > best {
			best = dp[j]
			bestJ = j
		}
	}
	if bestJ <= 0 {
		return nil
	}
	var out []int
	j := bestJ
	for i := len(w) - 1; i >= 0; i-- {
		if j >= 0 && take[i][j] {
			out = append(out, i)
			j -= int(w[i])
		}
	}
	sort.Ints(out)
	return out
}

// MaximalIndependentSet greedily selects a maximal set of mutually
// disjoint part groups, considering them in the given order. It returns
// the selected indices.
func MaximalIndependentSet(groups [][]int32) []int {
	used := map[int32]bool{}
	var out []int
	for i, g := range groups {
		ok := true
		for _, p := range g {
			if used[p] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, p := range g {
			used[p] = true
		}
		out = append(out, i)
	}
	return out
}

// SplitResult reports what heavy part splitting did.
type SplitResult struct {
	Merges      int
	EmptyParts  int
	SplitPieces int
	Before      float64
	After       float64
}

// HeavyPartSplit runs one round of merge-and-split (collective):
// lightly loaded parts merge into neighbors (emptying themselves), and
// heavily loaded parts split into the freed parts. The caller typically
// follows with BalanceSafe for final smoothing, as the paper describes.
// An aborted migration panics: the signature has no error to carry it.
func HeavyPartSplit(dm *partition.DMesh, cfg Config) SplitResult {
	d := dm.Dim
	counts := partition.GatherCounts(dm, d)
	mean, imb := partition.Imbalance(counts)
	res := SplitResult{Before: imb}
	if imb <= cfg.Tolerance {
		res.After = imb
		return res
	}
	avg := mean

	// Phase 1: merge proposals. Each under-loaded local part solves a
	// knapsack over its under-loaded neighbors.
	type proposal struct {
		leader int32
		others []int32
		total  int64
	}
	var localProps []proposal
	for _, part := range dm.Parts {
		m := part.M
		self := m.Part()
		if float64(counts[self]) >= avg {
			continue
		}
		var nbs []int32
		var wts []int64
		for _, q := range m.NeighborParts(0) {
			if float64(counts[q]) < avg && counts[q] > 0 {
				nbs = append(nbs, q)
				wts = append(wts, counts[q])
			}
		}
		chosen := Knapsack(wts, int64(avg)-counts[self])
		if len(chosen) == 0 {
			continue
		}
		p := proposal{leader: self}
		p.total = counts[self]
		for _, ci := range chosen {
			p.others = append(p.others, nbs[ci])
			p.total += counts[nbs[ci]]
		}
		localProps = append(localProps, p)
	}
	// Gather proposals everywhere and pick a deterministic MIS,
	// ordered by merged weight descending then leader id.
	flat := make([]mergeProp, len(localProps))
	for i, p := range localProps {
		flat[i] = mergeProp{Leader: p.leader, Others: p.others, Total: p.total}
	}
	allProps := gatherProps(dm, flat)
	sort.SliceStable(allProps, func(a, b int) bool {
		if allProps[a].Total != allProps[b].Total {
			return allProps[a].Total > allProps[b].Total
		}
		return allProps[a].Leader < allProps[b].Leader
	})
	groups := make([][]int32, len(allProps))
	for i, p := range allProps {
		groups[i] = append([]int32{p.Leader}, p.Others...)
	}
	selected := MaximalIndependentSet(groups)
	res.Merges = len(selected)

	// Execute merges: members migrate everything to their leader.
	dest := map[int32]int32{}
	for _, si := range selected {
		p := allProps[si]
		for _, q := range p.Others {
			dest[q] = p.Leader
		}
	}
	plans := make([]partition.Plan, len(dm.Parts))
	for i, part := range dm.Parts {
		m := part.M
		if to, ok := dest[m.Part()]; ok {
			plans[i] = partition.Plan{}
			for el := range m.Elements() {
				plans[i][el] = to
			}
		}
	}
	if err := partition.TryMigrate(dm, plans); err != nil {
		panic(err)
	}

	// Phase 2: split heavy parts into the emptied parts.
	counts = partition.GatherCounts(dm, d)
	var empties []int32
	for p, c := range counts {
		if c == 0 {
			empties = append(empties, int32(p))
		}
	}
	res.EmptyParts = len(empties)
	type heavy struct {
		part   int32
		excess int64
		pieces int
	}
	var heavies []heavy
	for p, c := range counts {
		if float64(c) > cfg.Tolerance*avg {
			pieces := int(float64(c)/avg+0.5) - 1
			if pieces < 1 {
				pieces = 1
			}
			heavies = append(heavies, heavy{part: int32(p), excess: c - int64(avg), pieces: pieces})
		}
	}
	sort.SliceStable(heavies, func(a, b int) bool {
		if heavies[a].excess != heavies[b].excess {
			return heavies[a].excess > heavies[b].excess
		}
		return heavies[a].part < heavies[b].part
	})
	// Deterministic assignment of empties to heavies.
	assign := map[int32][]int32{}
	ei := 0
	for _, h := range heavies {
		for k := 0; k < h.pieces && ei < len(empties); k++ {
			assign[h.part] = append(assign[h.part], empties[ei])
			ei++
		}
	}
	// Each rank splits its local heavy parts geometrically.
	plans = make([]partition.Plan, len(dm.Parts))
	for i, part := range dm.Parts {
		m := part.M
		targets := assign[m.Part()]
		if len(targets) == 0 {
			continue
		}
		in, els := zpart.Centroids(m)
		sub := zpart.RIB(in, len(targets)+1)
		plans[i] = partition.Plan{}
		for j, el := range els {
			if sub[j] > 0 {
				plans[i][el] = targets[sub[j]-1]
			}
		}
		res.SplitPieces += len(targets)
	}
	if err := partition.TryMigrate(dm, plans); err != nil {
		panic(err)
	}
	// Make the report identical on every rank (SplitPieces is tallied
	// only where the heavy parts live).
	res.SplitPieces = int(pcu.SumInt64(dm.Ctx, int64(res.SplitPieces)))
	_, res.After = partition.EntityImbalance(dm, d)
	return res
}

// mergeProp is one part's merge proposal: the leader absorbs Others.
type mergeProp struct {
	Leader int32
	Others []int32
	Total  int64
}

// gatherProps allgathers every rank's merge proposals (collective),
// returning the same combined list on all ranks, ordered by gathering
// rank then local order.
func gatherProps(dm *partition.DMesh, local []mergeProp) []mergeProp {
	var b pcu.Buffer
	b.Int32(int32(len(local)))
	for _, p := range local {
		b.Int32(p.Leader)
		b.Int32s(p.Others)
		b.Int64(p.Total)
	}
	blobs := pcu.Allgather(dm.Ctx, b.Raw())
	var out []mergeProp
	for _, blob := range blobs {
		r := pcu.NewReader(blob)
		n := int(r.Int32())
		for i := 0; i < n; i++ {
			out = append(out, mergeProp{
				Leader: r.Int32(),
				Others: r.Int32s(),
				Total:  r.Int64(),
			})
		}
		r.Done()
	}
	return out
}
