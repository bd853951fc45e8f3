package field

import (
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/vec"
)

// Point location and mesh-to-mesh solution transfer: the paper's intro
// lists mesh-to-mesh transfer among the unstructured-mesh services
// FASTMath develops on PUMI. Locate walks the simplex mesh toward a
// point through face neighbors; Transfer re-samples a field from one
// mesh onto the nodes of another.

// locateTol accepts barycentric coordinates slightly below zero so
// points on faces/edges land in either neighbor.
const locateTol = -1e-10

// Locate finds the simplex element of m containing point p, starting
// from hint (pass NilEnt to start anywhere). It returns the element and
// its barycentric coordinates at p; ok is false if p lies outside the
// mesh (the nearest element visited is still returned, useful for
// boundary rounding).
func Locate(m *mesh.Mesh, p vec.V, hint mesh.Ent) (el mesh.Ent, bary []float64, ok bool) {
	cur := hint
	if !cur.Ok() || !m.Alive(cur) {
		for e := range m.Elements() {
			cur = e
			break
		}
	}
	if !cur.Ok() {
		return mesh.NilEnt, nil, false
	}
	d := m.Dim()
	visited := map[mesh.Ent]bool{}
	for step := 0; step < m.Count(d)+1; step++ {
		b := Barycentric(m, cur, p)
		worst, wi := b[0], 0
		for i, w := range b {
			if w < worst {
				worst, wi = w, i
			}
		}
		if worst >= locateTol {
			return cur, b, true
		}
		visited[cur] = true
		// Walk through the face opposite the most negative coordinate.
		next := walkNeighbor(m, cur, wi)
		if !next.Ok() || visited[next] {
			// Stuck (left the mesh or cycling on a boundary): fall back
			// to scanning for any containing element.
			return scanLocate(m, p, cur)
		}
		cur = next
	}
	return scanLocate(m, p, cur)
}

// walkNeighbor returns the element across the facet opposite vertex wi
// of el, or NilEnt on the boundary.
func walkNeighbor(m *mesh.Mesh, el mesh.Ent, wi int) mesh.Ent {
	var vbuf [4]mesh.Ent
	verts := m.VertsTo(el, vbuf[:0])
	// The facet opposite verts[wi]: the other vertices.
	facet := make([]mesh.Ent, 0, len(verts)-1)
	for i, v := range verts {
		if i != wi {
			facet = append(facet, v)
		}
	}
	var ft mesh.Type
	if m.Dim() == 3 {
		ft = mesh.Tri
	} else {
		ft = mesh.Edge
	}
	f := m.FindFromVerts(ft, facet)
	if !f.Ok() {
		return mesh.NilEnt
	}
	var ubuf [2]mesh.Ent
	for _, up := range m.UpTo(f, ubuf[:0]) {
		if up != el {
			return up
		}
	}
	return mesh.NilEnt
}

// scanLocate linearly scans for a containing element; if none contains
// p, it returns the element minimizing the worst barycentric violation.
func scanLocate(m *mesh.Mesh, p vec.V, fallback mesh.Ent) (mesh.Ent, []float64, bool) {
	best := fallback
	bestWorst := -1e30
	var bestBary []float64
	for e := range m.Elements() {
		if m.IsGhost(e) {
			continue
		}
		b := Barycentric(m, e, p)
		worst := b[0]
		for _, w := range b {
			if w < worst {
				worst = w
			}
		}
		if worst >= locateTol {
			return e, b, true
		}
		if worst > bestWorst {
			bestWorst, best, bestBary = worst, e, b
		}
	}
	return best, bestBary, false
}

// Transfer re-samples the named linear field from src onto the vertex
// nodes of dst (mesh-to-mesh solution transfer). Destination nodes
// outside src (within boundary rounding) take the value of the nearest
// src element. It returns the number of nodes that required the
// outside-fallback. The field must already exist on both meshes.
func Transfer(src, dst *mesh.Mesh, name string) int {
	fs := Find(src, name, Linear)
	fd := Find(dst, name, Linear)
	if fs == nil || fd == nil {
		return -1
	}
	outside := 0
	hint := mesh.NilEnt
	for v := range dst.Iter(0) {
		p := dst.Coord(v)
		el, _, ok := Locate(src, p, hint)
		if !el.Ok() {
			continue
		}
		hint = el
		if !ok {
			outside++
		}
		fd.Set(v, fs.Eval(el, p)...)
	}
	return outside
}
