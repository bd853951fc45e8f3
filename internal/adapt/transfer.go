package adapt

import (
	"github.com/fastmath/pumi-go/internal/field"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/vec"
)

// FieldTransfer carries the named linear fields through mesh
// modification: a split edge's new vertex receives the average of the
// edge's end values; a collapse leaves the kept vertex's value.
type FieldTransfer struct {
	Names []string
}

// NewFieldTransfer returns a transfer for the given field names.
func NewFieldTransfer(names ...string) *FieldTransfer {
	return &FieldTransfer{Names: names}
}

// EdgeSplit implements Transfer by linear interpolation.
func (ft *FieldTransfer) EdgeSplit(m *mesh.Mesh, edge, mid mesh.Ent) {
	var ends [2]mesh.Ent
	vs := m.DownTo(edge, ends[:0])
	for _, name := range ft.Names {
		f := field.Find(m, name, field.Linear)
		if f == nil {
			continue
		}
		a := f.MustGet(vs[0])
		b := f.MustGet(vs[1])
		avg := make([]float64, len(a))
		for i := range avg {
			avg[i] = (a[i] + b[i]) / 2
		}
		f.Set(mid, avg...)
	}
}

// Collapse implements Transfer; the kept vertex's value already stands.
func (ft *FieldTransfer) Collapse(m *mesh.Mesh, removed, kept mesh.Ent) {}

// QuadraticFieldTransfer carries quadratic (vertex + edge node) fields
// through refinement exactly: the new vertex takes the parent edge
// node's value (the quadratic field's value at the midpoint), child
// edge nodes take the parent edge's 1D quadratic evaluated at the
// quarter points, and the new interior edges' nodes are evaluated from
// the parent elements before they are destroyed. Coarsening is not
// supported for quadratic fields (re-evaluate after collapse).
type QuadraticFieldTransfer struct {
	Names []string
	// pending holds node values for edges that will exist only after
	// the split completes, keyed by their vertex pair.
	pending map[[2]mesh.Ent]map[string][]float64
}

// NewQuadraticFieldTransfer returns a transfer for quadratic fields.
func NewQuadraticFieldTransfer(names ...string) *QuadraticFieldTransfer {
	return &QuadraticFieldTransfer{
		Names:   names,
		pending: map[[2]mesh.Ent]map[string][]float64{},
	}
}

func pairKey(a, b mesh.Ent) [2]mesh.Ent {
	if b.Less(a) {
		a, b = b, a
	}
	return [2]mesh.Ent{a, b}
}

func (qt *QuadraticFieldTransfer) stash(a, b mesh.Ent, name string, vals []float64) {
	key := pairKey(a, b)
	m := qt.pending[key]
	if m == nil {
		m = map[string][]float64{}
		qt.pending[key] = m
	}
	m[name] = vals
}

// EdgeSplit implements Transfer: it computes all child node values
// while the parent entities are still alive.
func (qt *QuadraticFieldTransfer) EdgeSplit(m *mesh.Mesh, edge, mid mesh.Ent) {
	var ends [2]mesh.Ent
	m.DownTo(edge, ends[:0])
	a, b := ends[0], ends[1]
	var elBuf [32]mesh.Ent
	var vertBuf [8]mesh.Ent
	els := m.AdjacentTo(edge, m.Dim(), elBuf[:0])
	for _, name := range qt.Names {
		f := field.Find(m, name, field.Quadratic)
		if f == nil {
			continue
		}
		va := f.MustGet(a)
		vb := f.MustGet(b)
		ve := f.MustGet(edge)
		n := len(ve)
		// Child edge nodes at the parent's 1D quarter points:
		// u(1/4) = 0.375 a - 0.125 b + 0.75 e (and mirrored).
		q1 := make([]float64, n)
		q3 := make([]float64, n)
		for i := 0; i < n; i++ {
			q1[i] = 0.375*va[i] - 0.125*vb[i] + 0.75*ve[i]
			q3[i] = -0.125*va[i] + 0.375*vb[i] + 0.75*ve[i]
		}
		// New vertex value: the parent edge node is the field value at
		// the midpoint. Last use of va, vb, ve: they are views of the
		// field's storage, good until this write.
		f.Set(mid, ve...)
		qt.stash(a, mid, name, q1)
		qt.stash(mid, b, name, q3)
		// Interior child edges (mid, c): evaluate the parent element's
		// quadratic field at the new edge's midpoint.
		for _, el := range els {
			for _, c := range m.AdjacentTo(el, 0, vertBuf[:0]) {
				if c == a || c == b {
					continue
				}
				q := vec.Mid(m.Coord(mid), m.Coord(c))
				qt.stash(mid, c, name, f.Eval(el, q))
			}
		}
	}
}

// EdgeSplitDone implements PostSplitTransfer: the stashed values land
// on the now-existing child edges.
func (qt *QuadraticFieldTransfer) EdgeSplitDone(m *mesh.Mesh, a, b, mid mesh.Ent) {
	for key, byField := range qt.pending {
		delete(qt.pending, key)
		e := m.FindFromVerts(mesh.Edge, key[:])
		if !e.Ok() {
			continue
		}
		for name, vals := range byField {
			if f := field.Find(m, name, field.Quadratic); f != nil {
				f.Set(e, vals...)
			}
		}
	}
}

// Collapse implements Transfer. Quadratic coarsening transfer is not
// supported; surviving nodes keep their values.
func (qt *QuadraticFieldTransfer) Collapse(m *mesh.Mesh, removed, kept mesh.Ent) {}
