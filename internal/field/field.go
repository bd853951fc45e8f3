// Package field implements the third of PUMI's three data models: the
// tensor quantities defining physical parameter distributions of the
// PDE over the mesh. A field attaches nodal values to mesh entities
// according to its shape — linear Lagrange (nodes on vertices) or
// quadratic Lagrange (nodes on vertices and edges) — and supports
// evaluation inside elements, global DOF numbering across a distributed
// mesh, synchronization of shared nodes, and solution transfer under
// mesh modification.
package field

import (
	"fmt"
	"math"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

// Shape selects the nodal distribution of a field.
type Shape int

// Supported shapes.
const (
	// Linear places one node on every mesh vertex.
	Linear Shape = iota
	// Quadratic places nodes on vertices and edge midpoints.
	Quadratic
)

// HasNodes reports whether the shape places nodes on entities of the
// given dimension.
func (s Shape) HasNodes(dim int) bool {
	switch s {
	case Linear:
		return dim == 0
	case Quadratic:
		return dim <= 1
	}
	return false
}

// NodeDims lists the dimensions carrying nodes.
func (s Shape) NodeDims() []int {
	if s == Quadratic {
		return []int{0, 1}
	}
	return []int{0}
}

// Field is a tensor field over one mesh part. Values are stored under a
// mesh tag, so they follow entity lifecycle automatically.
type Field struct {
	m     *mesh.Mesh
	name  string
	comps int
	shape Shape
	tag   *ds.Tag
}

// New creates a field with the given number of components per node.
func New(m *mesh.Mesh, name string, comps int, shape Shape) (*Field, error) {
	if comps < 1 {
		return nil, fmt.Errorf("field: %d components", comps)
	}
	tag, err := m.Tags.Create("field:"+name, ds.TagFloatSlice, comps)
	if err != nil {
		return nil, err
	}
	return &Field{m: m, name: name, comps: comps, shape: shape, tag: tag}, nil
}

// Find returns the existing field of that name on the mesh, or nil.
// The shape and component count must be supplied by the caller's
// convention; Find trusts the tag size for comps.
func Find(m *mesh.Mesh, name string, shape Shape) *Field {
	tag := m.Tags.Find("field:" + name)
	if tag == nil {
		return nil
	}
	return &Field{m: m, name: name, comps: tag.Size, shape: shape, tag: tag}
}

// Name returns the field name.
func (f *Field) Name() string { return f.name }

// Components returns the tensor component count per node.
func (f *Field) Components() int { return f.comps }

// Shape returns the field's nodal shape.
func (f *Field) Shape() Shape { return f.shape }

// Mesh returns the underlying mesh part.
func (f *Field) Mesh() *mesh.Mesh { return f.m }

// Set stores nodal values on a node-bearing entity.
func (f *Field) Set(e mesh.Ent, vals ...float64) {
	if !f.shape.HasNodes(e.Dim()) {
		panic(fmt.Sprintf("field %s: no nodes on %v", f.name, e))
	}
	f.m.Tags.SetFloats(f.tag, e, vals)
}

// Get reads nodal values; ok is false when the node is unset. The
// result is a view of the field's storage, valid until the next write
// to any tag or field of this mesh; passing it straight to Set is fine.
func (f *Field) Get(e mesh.Ent) ([]float64, bool) {
	return f.m.Tags.GetFloats(f.tag, e)
}

// MustGet reads nodal values, returning zeros when unset.
func (f *Field) MustGet(e mesh.Ent) []float64 {
	if v, ok := f.Get(e); ok {
		return v
	}
	return make([]float64, f.comps)
}

// SetByFunc fills every node from an analytic function of position
// (edge nodes use the midpoint).
func (f *Field) SetByFunc(fn func(vec.V) []float64) {
	for _, d := range f.shape.NodeDims() {
		for e := range f.m.Iter(d) {
			f.Set(e, fn(f.m.Centroid(e))...)
		}
	}
}

// NodeEntities returns the node-bearing entities of an element in a
// deterministic order: vertices then (for quadratic) edges — the order
// an element matrix indexes its local DOFs.
func (f *Field) NodeEntities(el mesh.Ent) []mesh.Ent {
	nodes := f.m.AdjacentTo(el, 0, nil)
	if f.shape == Quadratic {
		nodes = f.m.AdjacentTo(el, 1, nodes)
	}
	return nodes
}

// CountNodes returns the number of node-bearing entities on the part
// (ghosts excluded).
func (f *Field) CountNodes() int {
	n := 0
	for _, d := range f.shape.NodeDims() {
		for e := range f.m.Iter(d) {
			if !f.m.IsGhost(e) {
				n++
			}
		}
	}
	return n
}

// Barycentric returns the barycentric coordinates of point p in a
// simplex element (tri in 2D with z ignored, tet in 3D). Coordinates
// may be negative when p is outside.
func Barycentric(m *mesh.Mesh, el mesh.Ent, p vec.V) []float64 {
	var buf [4]mesh.Ent
	vs := m.VertsTo(el, buf[:0])
	switch el.T {
	case mesh.Tet:
		a, b, c, d := m.Coord(vs[0]), m.Coord(vs[1]), m.Coord(vs[2]), m.Coord(vs[3])
		vol := vec.TetVolume(a, b, c, d)
		if vol == 0 {
			return []float64{0.25, 0.25, 0.25, 0.25}
		}
		return []float64{
			vec.TetVolume(p, b, c, d) / vol,
			vec.TetVolume(a, p, c, d) / vol,
			vec.TetVolume(a, b, p, d) / vol,
			vec.TetVolume(a, b, c, p) / vol,
		}
	case mesh.Tri:
		a, b, c := m.Coord(vs[0]), m.Coord(vs[1]), m.Coord(vs[2])
		// Signed areas in the triangle's plane via cross products.
		n := b.Sub(a).Cross(c.Sub(a))
		den := n.Norm2()
		if den == 0 {
			return []float64{1. / 3, 1. / 3, 1. / 3}
		}
		w0 := b.Sub(p).Cross(c.Sub(p)).Dot(n) / den
		w1 := c.Sub(p).Cross(a.Sub(p)).Dot(n) / den
		w2 := 1 - w0 - w1
		return []float64{w0, w1, w2}
	}
	panic(fmt.Sprintf("field: barycentric unsupported for %v", el.T))
}

// Eval interpolates the field at point p inside simplex element el.
func (f *Field) Eval(el mesh.Ent, p vec.V) []float64 {
	bary := Barycentric(f.m, el, p)
	var buf [4]mesh.Ent
	vs := f.m.VertsTo(el, buf[:0])
	out := make([]float64, f.comps)
	switch f.shape {
	case Linear:
		for i, v := range vs {
			nv := f.MustGet(v)
			for c := 0; c < f.comps; c++ {
				out[c] += bary[i] * nv[c]
			}
		}
	case Quadratic:
		// Standard quadratic Lagrange on simplices: vertex shapes
		// L_i(2L_i - 1), edge shapes 4 L_i L_j.
		for i, v := range vs {
			w := bary[i] * (2*bary[i] - 1)
			nv := f.MustGet(v)
			for c := 0; c < f.comps; c++ {
				out[c] += w * nv[c]
			}
		}
		n := len(vs)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edge := f.m.FindFromVerts(mesh.Edge, []mesh.Ent{vs[i], vs[j]})
				if !edge.Ok() {
					continue
				}
				w := 4 * bary[i] * bary[j]
				nv := f.MustGet(edge)
				for c := 0; c < f.comps; c++ {
					out[c] += w * nv[c]
				}
			}
		}
	}
	return out
}

// L2Diff integrates the squared difference between the field and an
// analytic function over the mesh with one-point (centroid) quadrature,
// returning its square root — a convergence-test helper.
func (f *Field) L2Diff(fn func(vec.V) []float64) float64 {
	sum := 0.0
	for el := range f.m.Elements() {
		if f.m.IsGhost(el) {
			continue
		}
		c := f.m.Centroid(el)
		got := f.Eval(el, c)
		want := fn(c)
		d2 := 0.0
		for i := range got {
			d2 += (got[i] - want[i]) * (got[i] - want[i])
		}
		sum += d2 * f.m.Measure(el)
	}
	return math.Sqrt(sum)
}

// packNode is the send side of Sync and AccumulateShared: a node's
// values, none where the part lacks the field or the node.
func packNode(name string, shape Shape) func(*partition.Part, mesh.Ent, *pcu.Buffer) {
	return func(p *partition.Part, e mesh.Ent, b *pcu.Buffer) {
		var v []float64
		if f := Find(p.M, name, shape); f != nil {
			v, _ = f.Get(e)
		}
		b.Float64s(v)
	}
}

// Sync pushes owned shared node values to all remote copies, making the
// field single-valued across part boundaries (collective).
func Sync(dm *partition.DMesh, name string, shape Shape) {
	partition.SyncShared(dm, shape.NodeDims(), packNode(name, shape),
		func(p *partition.Part, e mesh.Ent, r *pcu.Reader) {
			vals := r.Float64s()
			if len(vals) == 0 {
				return
			}
			f := Find(p.M, name, shape)
			if f != nil {
				f.Set(e, vals...)
			}
		})
}

// AccumulateShared adds non-owner contributions into owner nodes
// (collective) — the communication step of a parallel FE assembly. The
// copies' values are left untouched; follow with Sync to redistribute.
func AccumulateShared(dm *partition.DMesh, name string, shape Shape) {
	partition.ReduceShared(dm, shape.NodeDims(), packNode(name, shape),
		func(p *partition.Part, e mesh.Ent, r *pcu.Reader) {
			vals := r.Float64s()
			if len(vals) == 0 {
				return
			}
			f := Find(p.M, name, shape)
			if f == nil {
				return
			}
			// cur is the node's stored values (or fresh zeros): summed
			// in place, then stored through Set so the write is guarded.
			cur := f.MustGet(e)
			for i := range cur {
				cur[i] += vals[i]
			}
			f.Set(e, cur...)
		})
}
