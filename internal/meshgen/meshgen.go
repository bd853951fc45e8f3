// Package meshgen generates classified unstructured meshes over the
// analytic geometric models of package gmi. It stands in for the
// commercial mesh generators (Simmetrix) that produced the paper's CAD
// meshes: structured-template triangle and tetrahedral meshes whose
// every entity carries a correct geometric classification, so that
// adaptation, snapping and boundary-condition logic downstream exercise
// the same code paths a CAD mesh would.
package meshgen

import (
	"fmt"
	"math"
	"slices"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/vec"
)

// Rect2D meshes the rectangle model with a structured nx x ny grid,
// each cell split into two triangles. Every entity is classified on the
// model (corners on model vertices, boundary edges on model edges,
// the rest on the face).
func Rect2D(model *gmi.RectModel, nx, ny int) *mesh.Mesh {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("meshgen: bad grid %dx%d", nx, ny))
	}
	m := mesh.New(model.Model, 2)
	m.Reserve(mesh.Vertex, (nx+1)*(ny+1))
	m.Reserve(mesh.Edge, nx*(ny+1)+(nx+1)*ny+nx*ny) // grid lines and one diagonal per cell
	m.Reserve(mesh.Tri, 2*nx*ny)
	tol := 1e-9 * (model.Lx + model.Ly)
	verts := make([]mesh.Ent, (nx+1)*(ny+1))
	at := func(i, j int) mesh.Ent { return verts[j*(nx+1)+i] }
	for j := 0; j <= ny; j++ {
		for i := 0; i <= nx; i++ {
			p := vec.V{X: model.Lx * float64(i) / float64(nx), Y: model.Ly * float64(j) / float64(ny)}
			verts[j*(nx+1)+i] = m.CreateVertex(model.ClassifyPoint(p, tol), p)
		}
	}
	faceRef := gmi.Ref{Dim: 2, Tag: 1}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			v00, v10 := at(i, j), at(i+1, j)
			v01, v11 := at(i, j+1), at(i+1, j+1)
			m.BuildFromVerts(mesh.Tri, []mesh.Ent{v00, v10, v11}, faceRef)
			m.BuildFromVerts(mesh.Tri, []mesh.Ent{v00, v11, v01}, faceRef)
		}
	}
	classifyByCentroid(m, func(p vec.V) gmi.Ref { return model.ClassifyPoint(p, tol) })
	return m
}

// Box3D meshes the box model with a structured nx x ny x nz grid, each
// hex cell split into six tetrahedra (Kuhn subdivision, conforming
// across cells). Every entity is classified on the model.
func Box3D(model *gmi.BoxModel, nx, ny, nz int) *mesh.Mesh {
	if nx < 1 || ny < 1 || nz < 1 {
		panic(fmt.Sprintf("meshgen: bad grid %dx%dx%d", nx, ny, nz))
	}
	m := mesh.New(model.Model, 3)
	reserveKuhn(m, nx, ny, nz)
	tol := 1e-9 * (model.Lx + model.Ly + model.Lz)
	sx, sy := nx+1, (nx+1)*(ny+1)
	verts := make([]mesh.Ent, (nx+1)*(ny+1)*(nz+1))
	at := func(i, j, k int) mesh.Ent { return verts[k*sy+j*sx+i] }
	for k := 0; k <= nz; k++ {
		for j := 0; j <= ny; j++ {
			for i := 0; i <= nx; i++ {
				p := vec.V{
					X: model.Lx * float64(i) / float64(nx),
					Y: model.Ly * float64(j) / float64(ny),
					Z: model.Lz * float64(k) / float64(nz),
				}
				verts[k*sy+j*sx+i] = m.CreateVertex(model.ClassifyPoint(p, tol), p)
			}
		}
	}
	rgnRef := gmi.Ref{Dim: 3, Tag: 1}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				corner := func(dx, dy, dz int) mesh.Ent { return at(i+dx, j+dy, k+dz) }
				buildKuhnTets(m, corner, rgnRef)
			}
		}
	}
	classifyByCentroid(m, func(p vec.V) gmi.Ref { return model.ClassifyPoint(p, tol) })
	return m
}

// kuhnTets lists the six tetrahedra of the Kuhn subdivision of a unit
// cell, as corner offsets (dx,dy,dz). All share the main diagonal
// 000-111, and every cell face receives the min-to-max diagonal, so
// adjacent cells conform.
var kuhnTets = [6][4][3]int{
	{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {1, 1, 1}},
	{{0, 0, 0}, {1, 0, 0}, {1, 0, 1}, {1, 1, 1}},
	{{0, 0, 0}, {0, 1, 0}, {1, 1, 0}, {1, 1, 1}},
	{{0, 0, 0}, {0, 1, 0}, {0, 1, 1}, {1, 1, 1}},
	{{0, 0, 0}, {0, 0, 1}, {1, 0, 1}, {1, 1, 1}},
	{{0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {1, 1, 1}},
}

// reserveKuhn sizes the empty mesh m for the Kuhn subdivision of an
// nx x ny x nz grid and returns its entity counts: every cell face
// carries one diagonal and two triangles, every cell one body diagonal,
// six inner triangles and six tetrahedra.
func reserveKuhn(m *mesh.Mesh, nx, ny, nz int) (verts, edges, tris, tets int) {
	cells := nx * ny * nz
	cellFaces := nx*ny*(nz+1) + nx*(ny+1)*nz + (nx+1)*ny*nz
	gridEdges := nx*(ny+1)*(nz+1) + (nx+1)*ny*(nz+1) + (nx+1)*(ny+1)*nz
	verts = m.Reserve(mesh.Vertex, (nx+1)*(ny+1)*(nz+1))
	edges = m.Reserve(mesh.Edge, gridEdges+cellFaces+cells)
	tris = m.Reserve(mesh.Tri, 2*cellFaces+6*cells)
	tets = m.Reserve(mesh.Tet, 6*cells)
	return
}

func buildKuhnTets(m *mesh.Mesh, corner func(dx, dy, dz int) mesh.Ent, rgnRef gmi.Ref) {
	for _, tet := range kuhnTets {
		var vs [4]mesh.Ent
		for v, off := range tet {
			vs[v] = corner(off[0], off[1], off[2])
		}
		m.BuildFromVerts(mesh.Tet, vs[:], rgnRef)
	}
}

// classifyByCentroid classifies every non-vertex entity by the model
// entity containing its centroid. Exact for models whose boundary
// entities are planar (rectangle, box): an entity lies on the boundary
// iff its centroid does.
func classifyByCentroid(m *mesh.Mesh, classify func(vec.V) gmi.Ref) {
	for d := 1; d <= m.Dim(); d++ {
		for e := range m.Iter(d) {
			m.SetClassification(e, classify(m.Centroid(e)))
		}
	}
}

// Vessel3D meshes the vessel model (the AAA surrogate) with ns axial
// layers and an n x n cross-section grid mapped onto the disk, each
// cell split into six tetrahedra. Roughly 6*ns*n*n elements.
// Classification is derived topologically: faces with a single region
// are boundary faces assigned to wall or caps by their axial layer,
// and lower entities classify onto the common model entity of their
// bounding faces (rims where wall meets cap).
func Vessel3D(model *gmi.VesselModel, ns, n int) *mesh.Mesh {
	if ns < 1 || n < 1 {
		panic(fmt.Sprintf("meshgen: bad vessel grid %dx%d", ns, n))
	}
	m := mesh.New(model.Model, 3)
	reserveKuhn(m, n, n, ns)
	sx, sy := n+1, (n+1)*(n+1)
	verts := make([]mesh.Ent, (n+1)*(n+1)*(ns+1))
	axial := make([]int, len(verts)) // axial layer by vertex slot
	at := func(iu, iv, it int) mesh.Ent { return verts[it*sy+iv*sx+iu] }
	for it := 0; it <= ns; it++ {
		t := float64(it) / float64(ns)
		c := model.Center(t)
		r := model.Radius(t)
		_, n1, n2 := model.Frame(t)
		for iv := 0; iv <= n; iv++ {
			for iu := 0; iu <= n; iu++ {
				u := -1 + 2*float64(iu)/float64(n)
				v := -1 + 2*float64(iv)/float64(n)
				// Square-to-disk map: boundary of the square lands on
				// the unit circle, interior stays smooth.
				a := u * sqrtNonNeg(1-v*v/2)
				b := v * sqrtNonNeg(1-u*u/2)
				p := c.Add(n1.Scale(r * a)).Add(n2.Scale(r * b))
				ve := m.CreateVertex(gmi.Ref{Dim: 3, Tag: 1}, p)
				verts[it*sy+iv*sx+iu] = ve
				axial[ve.I] = it
			}
		}
	}
	rgnRef := gmi.Ref{Dim: 3, Tag: 1}
	for it := 0; it < ns; it++ {
		for iv := 0; iv < n; iv++ {
			for iu := 0; iu < n; iu++ {
				corner := func(du, dv, dt int) mesh.Ent { return at(iu+du, iv+dv, it+dt) }
				buildKuhnTets(m, corner, rgnRef)
			}
		}
	}
	// Boundary faces: single upward region. Wall unless the whole face
	// sits on an end layer.
	wall := gmi.Ref{Dim: 2, Tag: 1}
	cap0 := gmi.Ref{Dim: 2, Tag: 2}
	cap1 := gmi.Ref{Dim: 2, Tag: 3}
	faceRef := func(f mesh.Ent) gmi.Ref {
		at0, at1 := true, true
		var buf [4]mesh.Ent
		for _, v := range m.AdjacentTo(f, 0, buf[:0]) {
			if axial[v.I] != 0 {
				at0 = false
			}
			if axial[v.I] != ns {
				at1 = false
			}
		}
		switch {
		case at0:
			return cap0
		case at1:
			return cap1
		default:
			return wall
		}
	}
	ClassifyBoundaryTopological(m, faceRef)
	return m
}

func sqrtNonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return math.Sqrt(x)
}

// ClassifyBoundaryTopological classifies a mesh against its model using
// only mesh topology: entities start classified on the interior region;
// each face bounding exactly one region is a boundary face and is
// assigned the model face faceRef reports; every lower-dimension entity
// adjacent to boundary faces classifies on the highest-dimension model
// entity common to all the model faces it touches (gmi.CommonDown).
// This is robust for curved models where centroid point-classification
// is not.
func ClassifyBoundaryTopological(m *mesh.Mesh, faceRef func(mesh.Ent) gmi.Ref) {
	model := m.Model()
	for f := range m.Iter(m.Dim() - 1) {
		if m.UpCount(f) == 1 {
			m.SetClassification(f, faceRef(f))
		}
	}
	var ups []mesh.Ent
	var refs []gmi.Ref
	for d := m.Dim() - 2; d >= 0; d-- {
		for e := range m.Iter(d) {
			refs = refs[:0]
			ups = m.AdjacentTo(e, d+1, ups[:0])
			for _, u := range ups {
				c := m.Classification(u)
				if int(c.Dim) < m.Dim() && !slices.Contains(refs, c) {
					refs = append(refs, c)
				}
			}
			if len(refs) == 0 {
				continue
			}
			if len(refs) == 1 {
				m.SetClassification(e, refs[0])
				continue
			}
			common := model.CommonDown(refs)
			if common.Valid() {
				m.SetClassification(e, common)
			} else {
				m.SetClassification(e, refs[0])
			}
		}
	}
}
