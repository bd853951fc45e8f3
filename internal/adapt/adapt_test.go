package adapt

import (
	"fmt"
	"math"
	"testing"

	"github.com/fastmath/pumi-go/internal/field"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

func totalMeasure(m *mesh.Mesh) float64 {
	v := 0.0
	for el := range m.Elements() {
		v += m.Measure(el)
	}
	return v
}

func TestSplitEdge2D(t *testing.T) {
	m := meshgen.Rect2D(gmi.Rect(1, 1), 1, 1) // 2 triangles
	before := m.Count(2)
	area := totalMeasure(m)
	// Split the diagonal (the only interior edge).
	var diag mesh.Ent
	for e := range m.Iter(1) {
		if m.Classification(e).Dim == 2 {
			diag = e
		}
	}
	mid := SplitEdge(m, diag, NopTransfer{})
	if m.Count(2) != before+2 {
		t.Fatalf("faces = %d", m.Count(2))
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(totalMeasure(m)-area) > 1e-12 {
		t.Fatal("area changed")
	}
	if m.Coord(mid).Dist(vec.V{X: 0.5, Y: 0.5}) > 1e-12 {
		t.Fatalf("midpoint at %v", m.Coord(mid))
	}
}

func TestSplitEdge3DVolumeAndCounts(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := meshgen.Box3D(model, 2, 2, 2)
	vol := totalMeasure(m)
	nb := m.Count(3)
	// Split a handful of interior edges.
	var interior []mesh.Ent
	for e := range m.Iter(1) {
		if m.Classification(e).Dim == 3 {
			interior = append(interior, e)
		}
	}
	if len(interior) == 0 {
		t.Fatal("no interior edges")
	}
	split := 0
	for _, e := range interior {
		if !m.Alive(e) {
			continue
		}
		n := len(m.AdjacentTo(e, 3, nil))
		SplitEdge(m, e, NopTransfer{})
		if m.Count(3) != nb+n {
			t.Fatalf("regions %d, want %d", m.Count(3), nb+n)
		}
		nb = m.Count(3)
		split++
		if split >= 5 {
			break
		}
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(totalMeasure(m)-vol) > 1e-12 {
		t.Fatalf("volume changed: %g vs %g", totalMeasure(m), vol)
	}
}

func TestSplitBoundaryEdgeClassificationAndSnap(t *testing.T) {
	model := gmi.Vessel(10, 1, 0.5, 0.5)
	m := meshgen.Vessel3D(model, 4, 4)
	// Find a wall-classified edge and split it: the new vertex must be
	// classified on the wall and snapped onto the wall surface.
	var wallEdge mesh.Ent = mesh.NilEnt
	for e := range m.Iter(1) {
		if m.Classification(e) == (gmi.Ref{Dim: 2, Tag: 1}) {
			wallEdge = e
			break
		}
	}
	if !wallEdge.Ok() {
		t.Fatal("no wall edge")
	}
	mid := SplitEdge(m, wallEdge, NopTransfer{})
	if m.Classification(mid) != (gmi.Ref{Dim: 2, Tag: 1}) {
		t.Fatalf("mid classified %v", m.Classification(mid))
	}
	p := m.Coord(mid)
	q := model.Snap(gmi.Ref{Dim: 2, Tag: 1}, p)
	if p.Dist(q) > 1e-6 {
		t.Fatalf("midpoint not snapped: off by %g", p.Dist(q))
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Boundary face count integrity: every face with one region is
	// boundary-classified.
	for f := range m.IterType(mesh.Tri) {
		if m.UpCount(f) == 1 && m.Classification(f).Dim != 2 {
			t.Fatalf("boundary face classified %v", m.Classification(f))
		}
		if m.UpCount(f) == 2 && m.Classification(f).Dim != 3 {
			t.Fatalf("interior face classified %v", m.Classification(f))
		}
	}
}

func TestRefineSatisfiesSizeField(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := meshgen.Box3D(model, 2, 2, 2)
	size := Uniform(0.3)
	n := Refine(m, size, NopTransfer{}, 20)
	if n == 0 {
		t.Fatal("no splits")
	}
	if got := len(MarkLongEdges(m, size)); got != 0 {
		t.Fatalf("%d long edges remain", got)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(totalMeasure(m)-1) > 1e-9 {
		t.Fatal("volume changed")
	}
}

func TestCoarsenReducesElements(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := meshgen.Box3D(model, 4, 4, 4)
	before := m.Count(3)
	vol := totalMeasure(m)
	n := Coarsen(m, Uniform(0.9), NopTransfer{}, 6)
	if n == 0 {
		t.Fatal("no collapses")
	}
	if m.Count(3) >= before {
		t.Fatalf("elements %d -> %d", before, m.Count(3))
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(totalMeasure(m)-vol) > 1e-9 {
		t.Fatalf("volume changed: %g vs %g", totalMeasure(m), vol)
	}
}

func TestFieldTransferThroughRefinement(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := meshgen.Box3D(model, 2, 2, 2)
	f, _ := field.New(m, "u", 1, field.Linear)
	fn := func(p vec.V) []float64 { return []float64{p.X + 2*p.Y - p.Z} }
	f.SetByFunc(fn)
	tr := NewFieldTransfer("u")
	Refine(m, Uniform(0.35), tr, 10)
	// Linear field transferred by midpoint averaging stays exact for
	// linear functions.
	for v := range m.Iter(0) {
		got, ok := f.Get(v)
		if !ok {
			t.Fatalf("vertex %v lost field", v)
		}
		want := fn(m.Coord(v))
		if math.Abs(got[0]-want[0]) > 1e-9 {
			t.Fatalf("v %v: %g want %g", v, got[0], want[0])
		}
	}
}

func TestParallelAdaptation(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		model := gmi.Box(4, 1, 1)
		var serial *mesh.Mesh
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 8, 2, 2)
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
		// Refine a band around the plane x = 2 (a shock front crossing
		// the part boundary between parts 1 and 2).
		size := func(p vec.V) float64 {
			d := math.Abs(p.X - 2)
			if d < 0.4 {
				return 0.22
			}
			return 0.8
		}
		before := partition.GlobalCount(dm, 3)
		st := Parallel(dm, size, DefaultOptions())
		after := partition.GlobalCount(dm, 3)
		if st.Splits == 0 {
			return fmt.Errorf("no splits")
		}
		if after <= before {
			return fmt.Errorf("element count %d -> %d", before, after)
		}
		if st.Localized == 0 {
			return fmt.Errorf("no boundary localization happened; the front must cross a part boundary")
		}
		// Size field satisfied globally.
		var remaining int64
		for _, part := range dm.Parts {
			remaining += int64(len(MarkLongEdges(part.M, size)))
		}
		if pcu.SumInt64(ctx, remaining) != 0 {
			return fmt.Errorf("%d long edges remain", remaining)
		}
		if err := partition.Verify(dm); err != nil {
			return err
		}
		// Volume conserved.
		var vol float64
		for _, part := range dm.Parts {
			m := part.M
			for el := range m.Elements() {
				if m.IsOwned(el) && !m.IsGhost(el) {
					vol += m.Measure(el)
				}
			}
		}
		total := pcu.SumFloat64(ctx, vol)
		if math.Abs(total-4) > 1e-6 {
			return fmt.Errorf("volume = %g", total)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPredictedElements(t *testing.T) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	total := func(size SizeField) float64 {
		w := 0.0
		for el := range m.Elements() {
			w += PredictedElements(m, el, size)
		}
		return w
	}
	// Uniform size equal to current edge length predicts roughly the
	// current count; half the size predicts ~8x.
	w1, w2 := total(Uniform(0.5)), total(Uniform(0.25))
	if w2 < 7.9*w1 {
		t.Fatalf("prediction not scaling: %g vs %g", w1, w2)
	}
	// A coarser target never predicts an element away.
	if w := total(Uniform(2)); w != float64(m.Count(3)) {
		t.Fatalf("coarse target predicts %g elements for %d", w, m.Count(3))
	}
}

func TestQuadraticFieldTransfer(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := meshgen.Box3D(model, 2, 2, 2)
	f, err := field.New(m, "q", 1, field.Quadratic)
	if err != nil {
		t.Fatal(err)
	}
	// An exactly-quadratic function must survive refinement exactly.
	fn := func(p vec.V) []float64 {
		return []float64{p.X*p.X - 2*p.Y*p.Y + p.X*p.Z + 3*p.Y - 1}
	}
	f.SetByFunc(fn)
	tr := NewQuadraticFieldTransfer("q")
	if n := Refine(m, Uniform(0.3), tr, 10); n == 0 {
		t.Fatal("no splits")
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Every vertex node equals fn exactly; every edge node equals fn at
	// the midpoint (a quadratic field's edge node value along a straight
	// edge is the midpoint value).
	for v := range m.Iter(0) {
		got, ok := f.Get(v)
		if !ok {
			t.Fatalf("vertex %v lost its node", v)
		}
		want := fn(m.Coord(v))
		if math.Abs(got[0]-want[0]) > 1e-9 {
			t.Fatalf("vertex %v: %g want %g", v, got[0], want[0])
		}
	}
	for e := range m.Iter(1) {
		got, ok := f.Get(e)
		if !ok {
			t.Fatalf("edge %v lost its node", e)
		}
		want := fn(m.Centroid(e))
		if math.Abs(got[0]-want[0]) > 1e-9 {
			t.Fatalf("edge %v: %g want %g", e, got[0], want[0])
		}
	}
	// Element-interior evaluation is exact too.
	for el := range m.Elements() {
		c := m.Centroid(el)
		got := f.Eval(el, c)
		want := fn(c)
		if math.Abs(got[0]-want[0]) > 1e-9 {
			t.Fatalf("eval %g want %g", got[0], want[0])
		}
	}
}
