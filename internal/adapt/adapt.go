// Package adapt implements size-field-driven mesh adaptation by local
// mesh modification: edge splitting (refinement) and edge collapsing
// (coarsening) on triangle and tetrahedral meshes, with geometric
// classification maintained, new boundary vertices snapped to the
// model, and solution transfer callbacks for fields.
//
// In parallel, the package follows PUMI's approach to mesh modification
// near part boundaries: rather than coordinating modifications across
// parts, the elements around a boundary cavity are first migrated to a
// single part ("obtaining mesh entities needed for mesh modification
// operations"), making the modification purely local.
package adapt

import (
	"fmt"
	"sort"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/vec"
)

// SizeField prescribes the desired edge length at a point.
type SizeField func(p vec.V) float64

// Uniform returns a constant size field.
func Uniform(h float64) SizeField { return func(vec.V) float64 { return h } }

// splitFactor: an edge splits when its length exceeds splitFactor times
// the local size; ~sqrt(2) keeps split children from immediately
// collapsing.
const splitFactor = 1.4

// collapseFactor: an edge collapses when shorter than collapseFactor
// times the local size.
const collapseFactor = 0.45

// Transfer receives local modification events so solution data can
// follow the mesh. Callbacks run while both old and new entities are
// alive.
type Transfer interface {
	// EdgeSplit announces that edge was split at the new vertex mid.
	EdgeSplit(m *mesh.Mesh, edge, mid mesh.Ent)
	// Collapse announces that vertex removed is merging into kept.
	Collapse(m *mesh.Mesh, removed, kept mesh.Ent)
}

// PostSplitTransfer is an optional extension of Transfer: EdgeSplitDone
// fires after an edge split completes, when the child entities exist —
// the hook higher-order (edge-node) solution transfer needs.
type PostSplitTransfer interface {
	EdgeSplitDone(m *mesh.Mesh, a, b, mid mesh.Ent)
}

// NopTransfer ignores all events.
type NopTransfer struct{}

// EdgeSplit implements Transfer.
func (NopTransfer) EdgeSplit(*mesh.Mesh, mesh.Ent, mesh.Ent) {}

// Collapse implements Transfer.
func (NopTransfer) Collapse(*mesh.Mesh, mesh.Ent, mesh.Ent) {}

// SplitEdge bisects one edge: a new vertex appears at the snapped
// midpoint with the edge's classification, and every adjacent element
// is replaced by two. It returns the new vertex. The edge must be
// interior to the part or the caller must have localized its cavity.
func SplitEdge(m *mesh.Mesh, edge mesh.Ent, tr Transfer) mesh.Ent {
	if edge.T != mesh.Edge {
		panic(fmt.Sprintf("adapt: SplitEdge of %v", edge))
	}
	d := m.Dim()
	var ends [2]mesh.Ent
	m.DownTo(edge, ends[:0])
	a, b := ends[0], ends[1]
	cls := m.Classification(edge)
	p := vec.Mid(m.Coord(a), m.Coord(b))
	if model := m.Model(); model != nil && cls.Valid() && int(cls.Dim) < d {
		p = model.Snap(cls, p)
	}
	mid := m.CreateVertex(cls, p)
	if tr != nil {
		tr.EdgeSplit(m, edge, mid)
	}
	// The sets around one edge are small: stack arrays hold them, and
	// append spills to the heap for the rare edge of higher valence.
	var elBuf, faceBuf [32]mesh.Ent
	var vertBuf, newBuf [8]mesh.Ent
	els := m.AdjacentTo(edge, d, elBuf[:0])
	// Record the old faces around the edge (3D) so their children can
	// inherit the exact parent classification: old face (a,b,c) splits
	// into (a,mid,c) and (mid,b,c), and the new edge (mid,c) lies
	// inside the old face.
	type faceRec struct {
		cls gmi.Ref
		opp mesh.Ent
	}
	var recBuf [32]faceRec
	recs := recBuf[:0]
	var faces []mesh.Ent
	if d == 3 {
		faces = m.AdjacentTo(edge, 2, faceBuf[:0])
		for _, f := range faces {
			opp := mesh.NilEnt
			for _, v := range m.AdjacentTo(f, 0, vertBuf[:0]) {
				if v != a && v != b {
					opp = v
				}
			}
			recs = append(recs, faceRec{cls: m.Classification(f), opp: opp})
		}
	}
	for _, el := range els {
		elCls := m.Classification(el)
		verts := m.VertsTo(el, vertBuf[:0])
		// Replace the element by two copies with b and a swapped for
		// mid respectively. Vertex orders stay valid cycles/templates
		// because only one vertex changes.
		for _, drop := range [2]mesh.Ent{b, a} {
			m.BuildFromVerts(el.T, substitute(newBuf[:0], verts, drop, mid), elCls)
		}
	}
	// Remove the old elements, then the orphaned entities around the
	// old edge (its faces in 3D, then the edge itself).
	for _, el := range els {
		m.Destroy(el)
	}
	for _, f := range faces {
		if m.Alive(f) && !m.HasUp(f) {
			m.Destroy(f)
		}
	}
	if m.Alive(edge) && !m.HasUp(edge) {
		m.Destroy(edge)
	}
	// Child edges of the split edge inherit its classification.
	for _, v := range ends {
		child := m.FindFromVerts(mesh.Edge, []mesh.Ent{v, mid})
		if child.Ok() {
			m.SetClassification(child, cls)
		}
	}
	// Children of each old face, and the new edge inside it, inherit
	// the old face's classification.
	for _, r := range recs {
		if !r.opp.Ok() {
			continue
		}
		for _, other := range ends {
			child := m.FindFromVerts(mesh.Tri, []mesh.Ent{other, mid, r.opp})
			if child.Ok() {
				m.SetClassification(child, r.cls)
			}
		}
		inner := m.FindFromVerts(mesh.Edge, []mesh.Ent{mid, r.opp})
		if inner.Ok() {
			m.SetClassification(inner, r.cls)
		}
	}
	if ps, ok := tr.(PostSplitTransfer); ok && ps != nil {
		ps.EdgeSplitDone(m, a, b, mid)
	}
	return mid
}

// substitute appends verts to dst with every occurrence of from
// replaced by to.
func substitute(dst, verts []mesh.Ent, from, to mesh.Ent) []mesh.Ent {
	for _, v := range verts {
		if v == from {
			v = to
		}
		dst = append(dst, v)
	}
	return dst
}

// MarkLongEdges returns the edges whose length exceeds the size field's
// split threshold, longest (relative to the local size) first.
func MarkLongEdges(m *mesh.Mesh, size SizeField) []mesh.Ent {
	type cand struct {
		e   mesh.Ent
		rel float64
	}
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

// Refine splits long edges until the size field is satisfied or
// maxRounds passes complete. It returns the number of splits. Part
// boundaries are not crossed: shared edges are skipped (the parallel
// driver localizes them first).
func Refine(m *mesh.Mesh, size SizeField, tr Transfer, maxRounds int) int {
	splits := 0
	for round := 0; round < maxRounds; round++ {
		marked := MarkLongEdges(m, size)
		n := 0
		for _, e := range marked {
			if !m.Alive(e) || m.IsShared(e) {
				continue
			}
			SplitEdge(m, e, tr)
			n++
		}
		splits += n
		if n == 0 {
			break
		}
	}
	return splits
}

// Adapt is the serial driver combining refinement and coarsening:
// rounds alternate until neither operation fires (or maxRounds is
// exhausted), ending with a refinement pass so no long edges remain.
// It returns total splits and collapses.
func Adapt(m *mesh.Mesh, size SizeField, tr Transfer, coarsen bool, maxRounds int) (splits, collapses int) {
	for round := 0; round < maxRounds; round++ {
		s := Refine(m, size, tr, 3)
		c := 0
		if coarsen {
			c = Coarsen(m, size, tr, 1)
		}
		splits += s
		collapses += c
		if s+c == 0 {
			return splits, collapses
		}
	}
	// Ensure the size field is met even if coarsening fired on the
	// last round.
	splits += Refine(m, size, tr, maxRounds)
	return splits, collapses
}
