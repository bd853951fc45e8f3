package partition

import (
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// GatherCounts returns the per-part count of live entities of the given
// dimension, indexed by global part id, identical on every rank
// (collective). Ghost copies are excluded: they are read-only
// duplicates, not load.
func GatherCounts(dm *DMesh, dim int) []int64 {
	local := make([]int64, dm.K)
	for i, part := range dm.Parts {
		n := int64(0)
		for e := range part.M.Iter(dim) {
			if !part.M.IsGhost(e) {
				n++
			}
		}
		local[i] = n
	}
	all := pcu.Allgather(dm.Ctx, local)
	out := make([]int64, 0, dm.NParts())
	for _, block := range all {
		out = append(out, block...)
	}
	return out
}

// GatherWeights is GatherCounts for an arbitrary per-part load functor.
func GatherWeights(dm *DMesh, weight func(p *Part) float64) []float64 {
	local := make([]float64, dm.K)
	for i, part := range dm.Parts {
		local[i] = weight(part)
	}
	all := pcu.Allgather(dm.Ctx, local)
	out := make([]float64, 0, dm.NParts())
	for _, block := range all {
		out = append(out, block...)
	}
	return out
}

// Imbalance summarizes a per-part load vector — entity counts or
// weights — the way the paper does: the mean load and the peak
// imbalance max/mean (1.0 = perfect balance; the paper reports
// (max/mean - 1) as "Imb.%").
func Imbalance[T int64 | float64](counts []T) (mean float64, imb float64) {
	if len(counts) == 0 {
		return 0, 0
	}
	var sum, max T
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	mean = float64(sum) / float64(len(counts))
	if mean == 0 {
		return 0, 0
	}
	return mean, float64(max) / mean
}

// EntityImbalance gathers the counts of one dimension and returns mean
// and max/mean (collective).
func EntityImbalance(dm *DMesh, dim int) (mean, imb float64) {
	return Imbalance(GatherCounts(dm, dim))
}

// BoundaryTraffic counts this distributed mesh's part-boundary
// duplication, split by architecture class: entities shared only with
// parts whose ranks live on the same node versus entities with at least
// one off-node copy. This is the quantity two-level architecture-aware
// partitioning optimizes (on-node boundaries can live implicitly in
// shared memory; off-node ones are explicit duplicates).
type BoundaryTraffic struct {
	SharedTotal   int64
	SharedOnNode  int64 // all copies on this rank's node
	SharedOffNode int64 // at least one copy off node
}

// GatherBoundaryTraffic sums boundary statistics over all parts
// (collective; identical result on every rank).
func GatherBoundaryTraffic(dm *DMesh, dim int) BoundaryTraffic {
	topo := dm.Ctx.Topo()
	myNode := topo.NodeOf(dm.Ctx.Rank())
	var local BoundaryTraffic
	for _, part := range dm.Parts {
		m := part.M
		for e := range m.PartBoundary(dim) {
			local.SharedTotal++
			off := false
			m.EachRemote(e, func(q int32, _ mesh.Ent) bool {
				if topo.NodeOf(dm.RankOf(q)) != myNode {
					off = true
					return false
				}
				return true
			})
			if off {
				local.SharedOffNode++
			} else {
				local.SharedOnNode++
			}
		}
	}
	return pcu.Allreduce(dm.Ctx, local, func(a, b BoundaryTraffic) BoundaryTraffic {
		return BoundaryTraffic{
			SharedTotal:   a.SharedTotal + b.SharedTotal,
			SharedOnNode:  a.SharedOnNode + b.SharedOnNode,
			SharedOffNode: a.SharedOffNode + b.SharedOffNode,
		}
	})
}

// GlobalCount returns the number of distinct entities of the given
// dimension across the whole distributed mesh (each shared entity
// counted once, at its owner; ghosts excluded). Collective.
func GlobalCount(dm *DMesh, dim int) int64 {
	var owned int64
	for _, part := range dm.Parts {
		m := part.M
		for e := range m.Iter(dim) {
			if !m.IsGhost(e) && m.IsOwned(e) {
				owned++
			}
		}
	}
	return pcu.SumInt64(dm.Ctx, owned)
}

// PlansFromAssignment turns a global assignment held by rank 0, whose
// part 0 holds the whole mesh, into per-local-part plans for TryMigrate;
// other ranks pass nil. Distribute is the entry point for a fresh serial
// mesh; this is for a hand-built plan over an adopted one.
func PlansFromAssignment(dm *DMesh, assign map[mesh.Ent]int32) []Plan {
	plans := make([]Plan, len(dm.Parts))
	if assign == nil {
		return plans
	}
	plans[0] = Plan(assign)
	return plans
}
