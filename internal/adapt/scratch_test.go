package adapt

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// bandSize is fine inside the slab |x − 0.5| < 0.15 and coarse outside.
func bandSize(fine, coarse float64) SizeField {
	return func(p vec.V) float64 {
		if math.Abs(p.X-0.5) < 0.15 {
			return fine
		}
		return coarse
	}
}

// churnedBox is a box refined to a band and coarsened again, so its
// slot arrays have grown, its free lists are long and creations reuse
// freed slots.
func churnedBox() *mesh.Mesh {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 4, 4, 4)
	Refine(m, bandSize(0.1, 0.3), nil, 10)
	Coarsen(m, bandSize(0.5, 0.5), nil, 4)
	return m
}

// TestSplitAndCollapseAllocs holds the kernels to fewer than one
// allocation per operation on a churned box, where the mesh's arrays no
// longer grow: marking and collapsing reuse one scratch per driver
// call, so what they still allocate is per call. A collapse that grows
// its own record and orphan lists reads about 13 mallocs.
func TestSplitAndCollapseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := churnedBox()
	perOp := func(run func() int) (float64, int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := run()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(max(n, 1)), n
	}
	split, splits := perOp(func() int { return Refine(m, bandSize(0.15, 0.3), nil, 10) })
	collapse, collapses := perOp(func() int { return Coarsen(m, bandSize(0.5, 0.5), nil, 4) })
	t.Logf("%.3f mallocs per split (%d), %.3f per collapse (%d)", split, splits, collapse, collapses)
	if splits < 100 || collapses < 100 {
		t.Fatalf("%d splits, %d collapses: too few to measure", splits, collapses)
	}
	if split >= 1 || collapse >= 1 {
		t.Errorf("mallocs per split %.3f, per collapse %.3f; want each < 1", split, collapse)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// markLongReference is MarkLongEdges as it was before the scratch
// buffer: every edge measured, then sort.Slice.
func markLongReference(m *mesh.Mesh, size SizeField) []mesh.Ent {
	var out []cand
	for e := range m.Iter(1) {
		if m.IsGhost(e) {
			continue
		}
		l := m.Measure(e)
		h := size(m.Centroid(e))
		if h <= 0 {
			continue
		}
		if l > splitFactor*h {
			out = append(out, cand{e: e, rel: l / h})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].rel != out[j].rel {
			return out[i].rel > out[j].rel
		}
		return out[i].e.Less(out[j].e)
	})
	es := make([]mesh.Ent, len(out))
	for i, c := range out {
		es[i] = c.e
	}
	return es
}

func TestMarkLongEdgesMatchesSortSlice(t *testing.T) {
	m := churnedBox()
	// A uniform field marks many edges of equal length, so ties are
	// broken by handle; the band marks by two relative lengths.
	for _, size := range []SizeField{Uniform(0.2), bandSize(0.12, 0.3)} {
		want := markLongReference(m, size)
		if len(want) < 50 {
			t.Fatalf("only %d edges marked", len(want))
		}
		if got := MarkLongEdges(m, size); !slices.Equal(got, want) {
			t.Fatalf("MarkLongEdges differs from the sort.Slice reference (%d vs %d edges)", len(got), len(want))
		}
	}
}

// localizeReference builds localizeMarked's plans as they were built
// before the shared-only sweep: from the full sorted MarkLongEdges list,
// skipping interior edges.
func localizeReference(dm *partition.DMesh, size SizeField, useMax bool) []partition.Plan {
	plans := make([]partition.Plan, len(dm.Parts))
	for i, part := range dm.Parts {
		m := part.M
		plans[i] = partition.Plan{}
		for _, e := range MarkLongEdges(m, size) {
			if !m.IsShared(e) {
				continue
			}
			res := m.AppendResidence(e, nil)
			d := res[0]
			if useMax {
				d = res[len(res)-1]
			}
			if d == m.Part() {
				continue
			}
			for _, el := range m.AdjacentTo(e, dm.Dim, nil) {
				cur, ok := plans[i][el]
				if !ok || (useMax && d > cur) || (!useMax && d < cur) {
					plans[i][el] = d
				}
			}
		}
	}
	return plans
}

// TestLocalizePlansMatchSortedSweep runs the localization sub-rounds of
// one adaptation on 2 ranks × 4 parts, in both flow directions, and
// compares each round's plans with the reference's.
func TestLocalizePlansMatchSortedSweep(t *testing.T) {
	size := bandSize(0.08, 0.5)
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(1, 1, 1)
		var serial *mesh.Mesh
		var assign []int32
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 6, 6, 6)
			in, _ := zpart.Centroids(serial)
			assign = zpart.RCB(in, 8)
		}
		dm, err := partition.Distribute(ctx, model.Model, 3, serial, assign, 4)
		if err != nil {
			return err
		}
		moved := int64(0)
		for _, useMax := range []bool{false, true} {
			for lr := 0; lr < 3; lr++ {
				got, want := localizePlans(dm, size, useMax), localizeReference(dm, size, useMax)
				for i := range want {
					if !maps.Equal(got[i], want[i]) {
						return fmt.Errorf("part %d, useMax %v, sub-round %d: %d planned elements, reference %d",
							dm.Parts[i].M.Part(), useMax, lr, len(got[i]), len(want[i]))
					}
				}
				moved += localizeMarked(dm, size, useMax)
			}
		}
		if moved == 0 {
			return fmt.Errorf("no element localized; the band must cross part boundaries")
		}
		return partition.Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}
