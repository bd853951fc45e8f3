package parma

import (
	"math"

	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// WeightFunc gives an application-defined load per element — the
// adjacency-based analogue of graph node weights in graph partitioners.
// Predictive load balancing for mesh adaptation (paper §III-B) uses the
// estimated post-adaptation element count as the weight.
type WeightFunc func(m *mesh.Mesh, el mesh.Ent) float64

// BalanceWeights diffuses element weight instead of entity counts: the
// same greedy cavity migration as BalanceSafe, driven by per-part total
// weight (collective). It returns the before/after weight imbalance and,
// like BalanceSafe, the same error on every rank when a migration
// aborts, the mesh left as the last completed iteration made it.
func BalanceWeights(dm *partition.DMesh, weight WeightFunc, cfg Config) (LevelResult, error) {
	lr := LevelResult{Dim: dm.Dim}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		weights := gatherWeights(dm, weight)
		mean, imb := imbalanceF(weights)
		if iter == 0 {
			lr.Before, lr.MeanBefore = imb, mean
		}
		lr.After, lr.MeanAfter = imb, mean
		if imb <= cfg.Tolerance {
			lr.Iters = iter
			return lr, nil
		}
		plans := buildWeightedPlans(dm, weights, mean, weight, cfg)
		moved := int64(0)
		for _, p := range plans {
			moved += int64(len(p))
		}
		total := pcu.SumInt64(dm.Ctx, moved)
		if err := partition.TryMigrate(dm, plans); err != nil {
			return lr, err
		}
		lr.Iters = iter + 1
		if total == 0 {
			break
		}
	}
	weights := gatherWeights(dm, weight)
	lr.MeanAfter, lr.After = imbalanceF(weights)
	return lr, nil
}

// gatherWeights sums element weights per part across all ranks.
func gatherWeights(dm *partition.DMesh, weight WeightFunc) []float64 {
	return partition.GatherWeights(dm, func(p *partition.Part) float64 {
		w := 0.0
		for el := range p.M.Elements() {
			if !p.M.IsGhost(el) {
				w += weight(p.M, el)
			}
		}
		return w
	})
}

func imbalanceF(weights []float64) (mean, imb float64) {
	if len(weights) == 0 {
		return 0, 0
	}
	var sum, max float64
	for _, w := range weights {
		sum += w
		if w > max {
			max = w
		}
	}
	mean = sum / float64(len(weights))
	if mean == 0 {
		return 0, 0
	}
	return mean, max / mean
}

func buildWeightedPlans(dm *partition.DMesh, weights []float64, avg float64, weight WeightFunc, cfg Config) []partition.Plan {
	plans := make([]partition.Plan, len(dm.Parts))
	arrivals := map[int32]float64{}
	var peers []int32 // remote-part scratch
	for i, part := range dm.Parts {
		m := part.M
		self := m.Part()
		plans[i] = partition.Plan{}
		myW := weights[self]
		if myW <= cfg.Tolerance*avg {
			continue
		}
		need := myW - avg
		candidates := map[int32]bool{}
		for _, q := range m.NeighborParts(0) {
			if weights[q] < avg || weights[q] < myW {
				candidates[q] = true
			}
		}
		if len(candidates) == 0 {
			continue
		}
		planned := map[mesh.Ent]bool{}
		for _, cav := range SelectCavities(m, dm.Dim) {
			if need <= 0 {
				break
			}
			overlap := false
			cavW := 0.0
			for _, el := range cav.Els {
				if planned[el] {
					overlap = true
					break
				}
				cavW += weight(m, el)
			}
			if overlap || cavW <= 0 {
				continue
			}
			var dest int32 = -1
			destLoad := math.Inf(1)
			peers = m.AppendRemoteParts(cav.Anchor, peers[:0])
			for _, q := range peers {
				if !candidates[q] {
					continue
				}
				load := weights[q] + arrivals[q]
				pairCap := (myW + weights[q]) / 2
				if load+cavW > pairCap {
					continue
				}
				if load < destLoad {
					dest = q
					destLoad = load
				}
			}
			if dest < 0 {
				continue
			}
			for _, el := range cav.Els {
				planned[el] = true
				plans[i][el] = dest
			}
			arrivals[dest] += cavW
			need -= cavW
		}
	}
	return plans
}
