package adapt

import (
	"math"
	"slices"
	"sort"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/vec"
)

// minQuality rejects collapses producing elements below this mean-ratio
// shape quality.
const minQuality = 0.05

// CanCollapse reports whether edge (removed -> kept) may collapse:
// the removed vertex merges into the kept one and all elements around
// the edge disappear. Requirements:
//
//   - removed is not on the part boundary and is not a ghost;
//   - classification compatibility: the removed vertex is classified on
//     the same model entity as the edge (so the model geometry is not
//     changed by removing it);
//   - validity: every surviving element around removed keeps positive
//     volume/area, acceptable quality, and does not duplicate an
//     existing element.
func CanCollapse(m *mesh.Mesh, edge, removed, kept mesh.Ent) bool {
	if m.IsShared(removed) || m.IsGhost(removed) {
		return false
	}
	if m.Classification(removed) != m.Classification(edge) {
		return false
	}
	var elBuf [64]mesh.Ent
	var vertBuf, newBuf [8]mesh.Ent
	for _, el := range m.AdjacentTo(removed, m.Dim(), elBuf[:0]) {
		if m.IsGhost(el) {
			return false
		}
		if hasVert(m, el, kept) {
			continue // dies with the edge
		}
		verts := m.VertsTo(el, vertBuf[:0])
		nv := substitute(newBuf[:0], verts, removed, kept)
		if m.FindFromVerts(el.T, nv).Ok() {
			return false // would duplicate an existing element
		}
		if !simplexValid(m, el.T, nv) {
			return false
		}
		// Orientation must be preserved: compare the signed measure of
		// the element under the same vertex labeling before and after
		// the substitution; a sign flip means the rebuilt element
		// inverts and overlaps its neighbors.
		if signedMeasure(m, verts)*signedMeasure(m, nv) <= 0 {
			return false
		}
	}
	return true
}

// signedMeasure returns the signed volume (tet) or signed z-area (tri)
// of a simplex given by vertex handles in a fixed labeling.
func signedMeasure(m *mesh.Mesh, verts []mesh.Ent) float64 {
	switch len(verts) {
	case 3:
		a, b, c := m.Coord(verts[0]), m.Coord(verts[1]), m.Coord(verts[2])
		return b.Sub(a).Cross(c.Sub(a)).Z / 2
	case 4:
		return vec.TetVolume(m.Coord(verts[0]), m.Coord(verts[1]), m.Coord(verts[2]), m.Coord(verts[3]))
	}
	return 0
}

func hasVert(m *mesh.Mesh, el, v mesh.Ent) bool {
	var buf [8]mesh.Ent
	return slices.Contains(m.AdjacentTo(el, 0, buf[:0]), v)
}

// simplexValid checks shape validity of a would-be element given its
// vertex handles.
func simplexValid(m *mesh.Mesh, t mesh.Type, verts []mesh.Ent) bool {
	var pts [4]vec.V
	if len(verts) > len(pts) {
		return false // not a simplex
	}
	for i, v := range verts {
		pts[i] = m.Coord(v)
	}
	switch t {
	case mesh.Tri:
		area := vec.TriArea(pts[0], pts[1], pts[2])
		l2 := pts[0].Sub(pts[1]).Norm2() + pts[1].Sub(pts[2]).Norm2() + pts[2].Sub(pts[0]).Norm2()
		return l2 > 0 && 4*math.Sqrt(3)*area/l2 > minQuality
	case mesh.Tet:
		vol := math.Abs(vec.TetVolume(pts[0], pts[1], pts[2], pts[3]))
		l2 := 0.0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				l2 += pts[i].Sub(pts[j]).Norm2()
			}
		}
		if l2 == 0 {
			return false
		}
		s2 := l2 / 6
		ideal := math.Pow(s2, 1.5) / (6 * math.Sqrt2)
		return vol/ideal > minQuality
	}
	return false
}

// CollapseEdge merges removed into kept: elements around the edge are
// destroyed, the other elements around removed are rebuilt with kept in
// its place, and removed disappears with its orphaned closure. The
// caller must have verified CanCollapse.
func CollapseEdge(m *mesh.Mesh, edge, removed, kept mesh.Ent, tr Transfer) {
	if tr != nil {
		tr.Collapse(m, removed, kept)
	}
	d := m.Dim()
	// Every element around removed is replaced or dies; the ones around
	// the edge (they contain kept as well) are among them.
	var elBuf [64]mesh.Ent
	var sideBuf [16]mesh.Ent
	var vertBuf, newBuf [8]mesh.Ent
	cavity := m.AdjacentTo(removed, d, elBuf[:0])
	// Record the classification of every lower entity touching the
	// removed vertex in surviving cavities, keyed by its replacement
	// vertex set, so boundary sides keep their model classification.
	type clsRec struct {
		t  mesh.Type
		nv [4]mesh.Ent
		c  gmi.Ref
	}
	var recs []clsRec
	for _, el := range cavity {
		if hasVert(m, el, kept) {
			continue
		}
		for dd := 1; dd < d; dd++ {
			for _, de := range m.AdjacentTo(el, dd, sideBuf[:0]) {
				if !hasVert(m, de, removed) {
					continue
				}
				r := clsRec{t: de.T, c: m.Classification(de)}
				nv := substitute(r.nv[:0], m.AdjacentTo(de, 0, vertBuf[:0]), removed, kept)
				if m.FindFromVerts(de.T, nv).Ok() {
					// The replacement already exists (a side of a
					// dying element) and keeps its own classification.
					continue
				}
				recs = append(recs, r)
			}
		}
	}
	// Create replacements first (they share entities with survivors).
	for _, el := range cavity {
		if hasVert(m, el, kept) {
			continue
		}
		nv := substitute(newBuf[:0], m.VertsTo(el, vertBuf[:0]), removed, kept)
		m.BuildFromVerts(el.T, nv, m.Classification(el))
	}
	for _, r := range recs {
		child := m.FindFromVerts(r.t, r.nv[:r.t.VertCount()])
		if child.Ok() {
			m.SetClassification(child, r.c)
		}
	}
	// Destroy all old elements around removed (including those around
	// the edge), then cascade orphans down to the removed vertex.
	var lower []mesh.Ent
	for _, el := range cavity {
		for dd := d - 1; dd >= 0; dd-- {
			lower = m.AdjacentTo(el, dd, lower)
		}
		m.Destroy(el)
	}
	// Orphan sweep, highest dimension first.
	slices.SortFunc(lower, func(a, b mesh.Ent) int {
		if a.Dim() != b.Dim() {
			return b.Dim() - a.Dim()
		}
		return a.Compare(b)
	})
	for _, e := range lower {
		if m.Alive(e) && !m.HasUp(e) && e.T != mesh.Vertex {
			m.Destroy(e)
		}
	}
	if m.Alive(removed) && !m.HasUp(removed) {
		m.Destroy(removed)
	}
}

// Coarsen collapses short edges until the size field is satisfied or
// maxRounds passes complete, returning the number of collapses. Only
// part-interior cavities are touched.
func Coarsen(m *mesh.Mesh, size SizeField, tr Transfer, maxRounds int) int {
	collapses := 0
	var ends [2]mesh.Ent
	for round := 0; round < maxRounds; round++ {
		type cand struct {
			e   mesh.Ent
			rel float64
		}
		var marked []cand
		for e := range m.Iter(1) {
			if m.IsGhost(e) {
				continue
			}
			l := m.Measure(e)
			// Evaluate the size conservatively (minimum over the edge)
			// so coarsening across a sharp size gradient cannot undo a
			// split that the gradient's fine side demanded — otherwise
			// refine and coarsen oscillate forever at the interface.
			vs := m.DownTo(e, ends[:0])
			h := size(m.Centroid(e))
			if ha := size(m.Coord(vs[0])); ha < h {
				h = ha
			}
			if hb := size(m.Coord(vs[1])); hb < h {
				h = hb
			}
			if h > 0 && l < collapseFactor*h {
				marked = append(marked, cand{e: e, rel: l / h})
			}
		}
		sort.Slice(marked, func(i, j int) bool {
			if marked[i].rel != marked[j].rel {
				return marked[i].rel < marked[j].rel
			}
			return marked[i].e.Less(marked[j].e)
		})
		n := 0
		for _, c := range marked {
			e := c.e
			if !m.Alive(e) {
				continue
			}
			vs := m.DownTo(e, ends[:0])
			switch {
			case CanCollapse(m, e, vs[0], vs[1]):
				CollapseEdge(m, e, vs[0], vs[1], tr)
				n++
			case CanCollapse(m, e, vs[1], vs[0]):
				CollapseEdge(m, e, vs[1], vs[0], tr)
				n++
			}
		}
		collapses += n
		if n == 0 {
			break
		}
	}
	return collapses
}
