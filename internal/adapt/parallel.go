package adapt

import (
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Options configures distributed adaptation.
type Options struct {
	// MaxRounds bounds the outer mark/localize/modify rounds.
	MaxRounds int
	// LocalizeRounds bounds the migrate-to-localize sub-iterations per
	// round.
	LocalizeRounds int
	// Coarsen enables edge collapsing of over-resolved regions.
	Coarsen bool
	// Transfer receives solution-transfer events (may be nil).
	Transfer Transfer
}

// DefaultOptions returns the settings used by the experiments.
func DefaultOptions() Options {
	return Options{MaxRounds: 12, LocalizeRounds: 6, Coarsen: true}
}

// Stats reports what a distributed adaptation did (globally summed).
type Stats struct {
	Rounds     int
	Splits     int64
	Collapses  int64
	Localized  int64 // elements migrated to localize boundary cavities
	ElemBefore int64
	ElemAfter  int64
}

// Parallel adapts a distributed mesh to the size field (collective).
// Each round: long part-boundary edges are localized by migrating their
// element cavities to the smallest residence part (the PUMI strategy of
// obtaining the entities a modification needs), then every part refines
// and optionally coarsens locally. Rounds repeat until the size field
// is met everywhere or MaxRounds is exhausted.
//
// No load balancing is performed here — by design. The paper's Fig 13
// experiment measures exactly the imbalance this produces; callers run
// ParMA afterwards (or predictively before). An aborted localization
// migration panics: the signature has no error to carry it.
func Parallel(dm *partition.DMesh, size SizeField, opts Options) Stats {
	var st Stats
	var sc scratch
	st.ElemBefore = partition.GlobalCount(dm, dm.Dim)
	for round := 0; round < opts.MaxRounds; round++ {
		st.Rounds = round + 1
		// Localize boundary cavities of marked edges, alternating the
		// flow direction between rounds.
		for lr := 0; lr < opts.LocalizeRounds; lr++ {
			moved := localizeMarked(dm, size, round%2 == 1)
			st.Localized += moved
			if moved == 0 {
				break
			}
		}
		// Local modification.
		var splits, collapses int64
		for _, part := range dm.Parts {
			splits += int64(sc.refine(part.M, size, opts.Transfer, 4))
			if opts.Coarsen {
				collapses += int64(sc.coarsen(part.M, size, opts.Transfer, 2))
			}
		}
		st.Splits += pcu.SumInt64(dm.Ctx, splits)
		st.Collapses += pcu.SumInt64(dm.Ctx, collapses)
		// Converged when no rank has marked edges left (interior or
		// boundary).
		remaining := int64(0)
		for _, part := range dm.Parts {
			eachLong(part.M, size, false, func(mesh.Ent, float64) { remaining++ })
		}
		if pcu.SumInt64(dm.Ctx, remaining) == 0 {
			break
		}
	}
	st.ElemAfter = partition.GlobalCount(dm, dm.Dim)
	return st
}

// localizeMarked migrates the element cavities of marked part-boundary
// edges to one residence part each (localizePlans), returning the
// global number of elements moved (collective).
func localizeMarked(dm *partition.DMesh, size SizeField, useMax bool) int64 {
	plans := localizePlans(dm, size, useMax)
	var moved int64
	for _, plan := range plans {
		moved += int64(len(plan))
	}
	total := pcu.SumInt64(dm.Ctx, moved)
	if err := partition.TryMigrate(dm, plans); err != nil {
		panic(err)
	}
	return total
}

// localizePlans sends the element cavity of every marked part-boundary
// edge to an extreme of the edge's residence set — the minimum part id,
// or the maximum when useMax is set. An element in several cavities
// keeps the extreme destination, so the edges may come in any order.
// Extreme-directed flow is monotone, so the subround loop terminates;
// the caller alternates the direction between rounds so a refinement
// zone sliced across many parts does not cascade entirely into the
// lowest part id.
func localizePlans(dm *partition.DMesh, size SizeField, useMax bool) []partition.Plan {
	better := func(a, b int32) bool {
		if useMax {
			return a > b
		}
		return a < b
	}
	plans := make([]partition.Plan, len(dm.Parts))
	var res []int32 // residence scratch
	var els []mesh.Ent
	for i, part := range dm.Parts {
		m := part.M
		self := m.Part()
		plan := partition.Plan{}
		eachLong(m, size, true, func(e mesh.Ent, _ float64) {
			res = m.AppendResidence(e, res[:0])
			d := res[0]
			if useMax {
				d = res[len(res)-1]
			}
			if d == self {
				return // cavity gathers here
			}
			els = m.AdjacentTo(e, dm.Dim, els[:0])
			for _, el := range els {
				if cur, ok := plan[el]; !ok || better(d, cur) {
					plan[el] = d
				}
			}
		})
		plans[i] = plan
	}
	return plans
}

// PredictedElements estimates how many elements one element becomes
// under the size field: its measure over the volume of a simplex with
// the local target edge length (h^3/6 for tets, h^2/2 for triangles —
// the shapes the edge-subdivision operator produces). Elements already
// at or below the target contribute 1 (coarsening merges are bounded by
// collapse validity, so predicting below 1 over-promises).
func PredictedElements(m *mesh.Mesh, el mesh.Ent, size SizeField) float64 {
	h := size(m.Centroid(el))
	if h <= 0 {
		return 1
	}
	var target float64
	if m.Dim() == 3 {
		target = h * h * h / 6
	} else {
		target = h * h / 2
	}
	n := m.Measure(el) / target
	if n < 1 {
		return 1
	}
	return n
}
