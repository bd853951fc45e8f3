package adapt

import (
	"fmt"
	"math"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// TestRandomModificationSequence applies a long random interleaving of
// edge splits and collapses and asserts after every operation batch
// that the mesh stays structurally consistent and its total volume is
// exactly conserved.
func TestRandomModificationSequence(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := meshgen.Box3D(model, 3, 3, 3)
	wantVol := totalMeasure(m)
	rng := xorshift(0xdeadbeef)
	ops := 0
	for round := 0; round < 6; round++ {
		// Random splits.
		var edges []mesh.Ent
		for e := range m.Iter(1) {
			edges = append(edges, e)
		}
		for i := 0; i < 30 && len(edges) > 0; i++ {
			e := edges[rng.next()%uint64(len(edges))]
			if !m.Alive(e) {
				continue
			}
			SplitEdge(m, e, NopTransfer{})
			ops++
		}
		// Random collapse attempts.
		edges = edges[:0]
		for e := range m.Iter(1) {
			edges = append(edges, e)
		}
		for i := 0; i < 30 && len(edges) > 0; i++ {
			e := edges[rng.next()%uint64(len(edges))]
			if !m.Alive(e) {
				continue
			}
			vs := m.DownTo(e, nil)
			switch {
			case CanCollapse(m, e, vs[0], vs[1]):
				CollapseEdge(m, e, vs[0], vs[1], NopTransfer{})
				ops++
			case CanCollapse(m, e, vs[1], vs[0]):
				CollapseEdge(m, e, vs[1], vs[0], NopTransfer{})
				ops++
			}
		}
		if err := m.CheckConsistency(); err != nil {
			t.Fatalf("round %d (after %d ops): %v", round, ops, err)
		}
		if v := totalMeasure(m); math.Abs(v-wantVol) > 1e-9 {
			t.Fatalf("round %d: volume %g, want %g", round, v, wantVol)
		}
		// Euler characteristic of a ball stays 1 under local
		// modification.
		if chi := m.Count(0) - m.Count(1) + m.Count(2) - m.Count(3); chi != 1 {
			t.Fatalf("round %d: chi = %d", round, chi)
		}
	}
	if ops < 60 {
		t.Fatalf("only %d operations executed", ops)
	}
}

// TestParallel2DAdaptation runs the distributed pipeline on a 2D mesh:
// distribute, adapt to a band size field across a part boundary, check
// invariants — exercising every dim==2 code path in adaptation and
// migration.
func TestParallel2DAdaptation(t *testing.T) {
	err := pcu.Run(3, func(ctx *pcu.Ctx) error {
		model := gmi.Rect(3, 1)
		var serial *mesh.Mesh
		if ctx.Rank() == 0 {
			serial = meshgen.Rect2D(model, 9, 3)
		}
		dm := partition.Adopt(ctx, model.Model, 2, serial, 1)
		var assign map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			assign = map[mesh.Ent]int32{}
			for el := range serial.Elements() {
				p := int32(serial.Centroid(el).X)
				if p > 2 {
					p = 2
				}
				assign[el] = p
			}
		}
		if err := partition.TryMigrate(dm, partition.PlansFromAssignment(dm, assign)); err != nil {
			return err
		}
		if err := partition.Verify(dm); err != nil {
			return fmt.Errorf("2D distribute: %w", err)
		}
		size := func(p vec.V) float64 {
			if math.Abs(p.X-1.5) < 0.3 {
				return 0.09
			}
			return 0.6
		}
		st := Parallel(dm, size, DefaultOptions())
		if st.Splits == 0 {
			return fmt.Errorf("no 2D splits")
		}
		var remaining int64
		for _, part := range dm.Parts {
			remaining += int64(len(MarkLongEdges(part.M, size)))
		}
		if pcu.SumInt64(ctx, remaining) != 0 {
			return fmt.Errorf("%d long edges remain", remaining)
		}
		// Area conserved.
		var area float64
		for _, part := range dm.Parts {
			m := part.M
			for el := range m.Elements() {
				if m.IsOwned(el) {
					area += m.Measure(el)
				}
			}
		}
		if got := pcu.SumFloat64(ctx, area); math.Abs(got-3) > 1e-9 {
			return fmt.Errorf("area = %g", got)
		}
		return partition.Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitBoundary2DKeepsClassification splits a model-edge-classified
// 2D mesh edge and verifies the children and new vertex stay on the
// model edge.
func TestSplitBoundary2DKeepsClassification(t *testing.T) {
	model := gmi.Rect(1, 1)
	m := meshgen.Rect2D(model, 2, 2)
	var be mesh.Ent = mesh.NilEnt
	for e := range m.Iter(1) {
		if m.Classification(e).Dim == 1 {
			be = e
			break
		}
	}
	if !be.Ok() {
		t.Fatal("no boundary edge")
	}
	cls := m.Classification(be)
	vs := m.DownTo(be, nil)
	mid := SplitEdge(m, be, NopTransfer{})
	if m.Classification(mid) != cls {
		t.Fatalf("mid classified %v, want %v", m.Classification(mid), cls)
	}
	for _, v := range vs {
		child := m.FindFromVerts(mesh.Edge, []mesh.Ent{v, mid})
		if !child.Ok() || m.Classification(child) != cls {
			t.Fatalf("child edge classification lost")
		}
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
