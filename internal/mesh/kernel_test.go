package mesh_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/fastmath/pumi-go/internal/adapt"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/vec"
)

// --- The oracle: brute force over the whole mesh through Down only ---

// inClosure reports whether lo lies in the downward closure of hi.
func inClosure(m *mesh.Mesh, hi, lo mesh.Ent) bool {
	if hi == lo {
		return true
	}
	if hi.Dim() <= lo.Dim() {
		return false
	}
	for _, d := range m.DownTo(hi, nil) {
		if inClosure(m, d, lo) {
			return true
		}
	}
	return false
}

// refAdjacent scans every entity of dimension dim and keeps those
// incident to e. Iter runs type-major in slot order, which is Ent.Less
// order.
func refAdjacent(m *mesh.Mesh, e mesh.Ent, dim int) []mesh.Ent {
	var out []mesh.Ent
	if dim == e.Dim() {
		return out
	}
	for x := range m.Iter(dim) {
		if dim < e.Dim() && inClosure(m, e, x) || dim > e.Dim() && inClosure(m, x, e) {
			out = append(out, x)
		}
	}
	return out
}

func refBridge(m *mesh.Mesh, e mesh.Ent, bridgeDim, targetDim int) []mesh.Ent {
	var out []mesh.Ent
	if bridgeDim == e.Dim() || bridgeDim == targetDim {
		return out
	}
	bridges := refAdjacent(m, e, bridgeDim)
	for x := range m.Iter(targetDim) {
		if x == e {
			continue
		}
		for _, b := range bridges {
			if inClosure(m, x, b) || inClosure(m, b, x) {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// refVerts is the vertex order Verts returned before the table-driven
// kernel: face vertex i is shared by edges i-1 and i; a region lists
// its base face's cycle, then the apex (first vertex of face 1 outside
// the base) or, for hex and prism, each base vertex's partner across a
// vertical edge of the region.
func refVerts(m *mesh.Mesh, e mesh.Ent) []mesh.Ent {
	faceVerts := func(f mesh.Ent) []mesh.Ent {
		edges := m.DownTo(f, nil)
		out := make([]mesh.Ent, len(edges))
		for i := range edges {
			a, b := m.DownTo(edges[(i+len(edges)-1)%len(edges)], nil), m.DownTo(edges[i], nil)
			out[i] = mesh.NilEnt
			for _, v := range a {
				if slices.Contains(b, v) {
					out[i] = v
					break
				}
			}
		}
		return out
	}
	switch e.Dim() {
	case 0:
		return []mesh.Ent{e}
	case 1:
		return m.DownTo(e, nil)
	case 2:
		return faceVerts(e)
	}
	faces := m.DownTo(e, nil)
	out := faceVerts(faces[0])
	top := faceVerts(faces[1])
	if e.T == mesh.Tet || e.T == mesh.Pyramid {
		for _, v := range top {
			if !slices.Contains(out, v) {
				return append(out, v)
			}
		}
		return out
	}
	for _, v := range out {
		for _, edge := range refAdjacent(m, v, 1) {
			ends := m.DownTo(edge, nil)
			o := ends[0]
			if o == v {
				o = ends[1]
			}
			if slices.Contains(top, o) && inClosure(m, e, edge) {
				out = append(out, o)
				break
			}
		}
	}
	return out
}

// findOracle answers FindFromVerts by table: every entity's vertex set,
// found by brute force, keyed by type and sorted vertex list.
type findOracle map[string]mesh.Ent

func newFindOracle(m *mesh.Mesh) findOracle {
	o := findOracle{}
	for d := 0; d <= m.Dim(); d++ {
		for e := range m.Iter(d) {
			set := []mesh.Ent{e}
			if d > 0 {
				set = refAdjacent(m, e, 0)
			}
			key := fmt.Sprint(e.T, set)
			if prev, dup := o[key]; dup && prev.Less(e) {
				continue
			}
			o[key] = e
		}
	}
	return o
}

// find returns the entity of type t whose vertex set is exactly verts
// (a set: a repeated vertex or a wrong count matches nothing).
func (o findOracle) find(t mesh.Type, verts []mesh.Ent) mesh.Ent {
	set := slices.Clone(verts)
	slices.SortFunc(set, entCmp)
	if len(slices.Compact(slices.Clone(set))) != len(verts) {
		return mesh.NilEnt
	}
	if e, ok := o[fmt.Sprint(t, set)]; ok {
		return e
	}
	return mesh.NilEnt
}

func entCmp(a, b mesh.Ent) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}

// --- Meshes under test ---

// quadGrid builds an n x n grid of quads on a 2-D mesh.
func quadGrid(n int) *mesh.Mesh {
	m := mesh.New(nil, 2)
	vs := make([]mesh.Ent, (n+1)*(n+1))
	for j := 0; j <= n; j++ {
		for i := 0; i <= n; i++ {
			vs[j*(n+1)+i] = m.CreateVertex(gmi.NoRef, vec.V{X: float64(i), Y: float64(j)})
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			at := func(di, dj int) mesh.Ent { return vs[(j+dj)*(n+1)+i+di] }
			m.BuildFromVerts(mesh.Quad, []mesh.Ent{at(0, 0), at(1, 0), at(1, 1), at(0, 1)}, gmi.NoRef)
		}
	}
	return m
}

// mixedCells builds a hex with a pyramid on its top face, a prism on
// one side face and a tet on one of the pyramid's faces: every region
// type, tri and quad faces shared between unlike regions.
func mixedCells() *mesh.Mesh {
	m := mesh.New(nil, 3)
	p := func(x, y, z float64) mesh.Ent { return m.CreateVertex(gmi.NoRef, vec.V{X: x, Y: y, Z: z}) }
	h := []mesh.Ent{p(0, 0, 0), p(1, 0, 0), p(1, 1, 0), p(0, 1, 0), p(0, 0, 1), p(1, 0, 1), p(1, 1, 1), p(0, 1, 1)}
	m.BuildFromVerts(mesh.Hex, h, gmi.NoRef)
	apex := p(0.5, 0.5, 2)
	m.BuildFromVerts(mesh.Pyramid, []mesh.Ent{h[4], h[5], h[6], h[7], apex}, gmi.NoRef)
	a, b := p(2, 0, 0), p(2, 0, 1)
	// Prism with the hex's x = 1 side (1,2,6,5) as a quad face.
	m.BuildFromVerts(mesh.Prism, []mesh.Ent{h[1], a, h[5], h[2], p(2, 1, 0), h[6]}, gmi.NoRef)
	m.BuildFromVerts(mesh.Tet, []mesh.Ent{h[5], h[6], apex, b}, gmi.NoRef)
	return m
}

// churned returns Box3D after a refine + coarsen round, so entity slots
// have been freed and reused and use lists are no longer in creation
// order.
func churned(t *testing.T) *mesh.Mesh {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	size := func(p vec.V) float64 {
		if math.Abs(p.X+0.25*p.Y-0.55) < 0.15 {
			return 0.3
		}
		return 1.6
	}
	splits := adapt.Refine(m, size, adapt.NopTransfer{}, 2)
	collapses := adapt.Coarsen(m, size, adapt.NopTransfer{}, 2)
	if splits == 0 || collapses == 0 {
		t.Fatalf("churn did %d splits, %d collapses; want both", splits, collapses)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	return m
}

func kernelMeshes(t *testing.T) map[string]*mesh.Mesh {
	return map[string]*mesh.Mesh{
		"box3d":    meshgen.Box3D(gmi.Box(1, 1, 1), 3, 3, 3),
		"vessel3d": meshgen.Vessel3D(gmi.Vessel(10, 1, 0.5, 0.5), 3, 3),
		"tri2d":    meshgen.Rect2D(gmi.Rect(1, 1), 4, 4),
		"quad2d":   quadGrid(4),
		"mixed":    mixedCells(),
		"churned":  churned(t),
	}
}

// --- Differential tests ---

// downLevelSizes returns how many faces, edges and vertices the closure
// of one entity of type ty holds, read from the canonical templates.
func downLevelSizes(ty mesh.Type) []int {
	sizes := []int{ty.VertCount()}
	if ty.Dim() == 3 {
		edges := map[[2]int]bool{}
		for i, ft := range mesh.DownTypesForTest[ty] {
			fv := mesh.DownVertsForTest[ty][i]
			for _, ev := range mesh.DownVertsForTest[ft] {
				a, b := fv[ev[0]], fv[ev[1]]
				edges[[2]int{min(a, b), max(a, b)}] = true
			}
		}
		sizes = append(sizes, len(edges))
	}
	return append(sizes, ty.DownCount())
}

func TestKernelMatchesBruteForce(t *testing.T) {
	// The downward traversal keeps a level in DownStackForTest entries; a
	// type whose closure held more would spill on every query.
	for ty := mesh.Edge; ty < mesh.TypeCount; ty++ {
		for _, n := range downLevelSizes(ty) {
			if n > mesh.DownStackForTest {
				t.Errorf("%v has a downward level of %d entities, beyond the downward scratch of %d", ty, n, mesh.DownStackForTest)
			}
		}
	}
	for name, m := range kernelMeshes(t) {
		t.Run(name, func(t *testing.T) {
			// A dirty prefix checks that the To forms append and leave
			// what was there alone.
			prefix := []mesh.Ent{{T: mesh.Hex, I: 12345}}
			buf := make([]mesh.Ent, 0, 64)
			words := make([]uint32, 0, 64)
			for d := 0; d <= m.Dim(); d++ {
				for e := range m.Iter(d) {
					// The one-pass closure is AdjacentTo per lower dimension.
					var closure []mesh.Ent
					for dim := 0; dim < d; dim++ {
						closure = append(closure, refAdjacent(m, e, dim)...)
					}
					words = m.ClosureTo(e, append(words[:0], prefix[0].Pack()))
					got := make([]mesh.Ent, len(words))
					for i, w := range words {
						got[i] = mesh.UnpackEnt(w)
					}
					if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], closure) {
						t.Fatalf("ClosureTo(%v) = %v, want %v", e, got[1:], closure)
					}
					for dim := 0; dim <= m.Dim(); dim++ {
						want := refAdjacent(m, e, dim)
						buf = m.AdjacentTo(e, dim, append(buf[:0], prefix...))
						if !slices.Equal(buf[:1], prefix) || !slices.Equal(buf[1:], want) {
							t.Fatalf("AdjacentTo(%v, %d) = %v, want %v", e, dim, buf[1:], want)
						}
						if got := m.AdjacentTo(e, dim, nil); !slices.Equal(got, want) {
							t.Fatalf("Adjacent(%v, %d) = %v, want %v", e, dim, got, want)
						}
					}
					want := refVerts(m, e)
					buf = m.VertsTo(e, append(buf[:0], prefix...))
					if !slices.Equal(buf[:1], prefix) || !slices.Equal(buf[1:], want) {
						t.Fatalf("VertsTo(%v) = %v, want %v", e, buf[1:], want)
					}
					checkTemplate(t, m, e, want)
					if e.T == mesh.Quad {
						// Leading vertices on a diagonal: no edge joins them.
						diag := []mesh.Ent{want[0], want[2], want[1], want[3]}
						if got := m.FindFromVerts(mesh.Quad, diag); got != e {
							t.Fatalf("FindFromVerts(quad, %v) led by a diagonal = %v, want %v", diag, got, e)
						}
					}
					if d < m.Dim() {
						if got, want := m.UpCount(e), len(refAdjacent(m, e, d+1)); got != want {
							t.Fatalf("UpCount(%v) = %d, want %d", e, got, want)
						}
					}
				}
			}
		})
	}
}

// checkTemplate verifies verts against the canonical tables where they
// bind. A face's i-th edge joins vertices i and i+1. A region comes back
// in a rotation or reflection of its creation order, so only its base
// face (and, for hex and prism, the opposite face) is pinned by index.
func checkTemplate(t *testing.T, m *mesh.Mesh, e mesh.Ent, verts []mesh.Ent) {
	t.Helper()
	if e.Dim() < 2 {
		return
	}
	for i, d := range m.DownTo(e, nil) {
		if e.Dim() == 3 && i > 0 && !(i == 1 && (e.T == mesh.Hex || e.T == mesh.Prism)) {
			break
		}
		var want []mesh.Ent
		for _, li := range mesh.DownVertsForTest[e.T][i] {
			want = append(want, verts[li])
		}
		slices.SortFunc(want, entCmp)
		if got := refAdjacent(m, d, 0); !slices.Equal(got, want) {
			t.Fatalf("Verts(%v) = %v: downward[%d] = %v has vertices %v, template says %v", e, verts, i, d, got, want)
		}
	}
}

func TestBridgeAdjacentMatchesBruteForce(t *testing.T) {
	for name, m := range kernelMeshes(t) {
		t.Run(name, func(t *testing.T) {
			D := m.Dim()
			// Elements through sides and through vertices, vertices
			// through edges and through elements, sides through elements.
			cases := [][3]int{{D, D - 1, D}, {D, 0, D}, {0, 1, 0}, {0, D, 0}, {D - 1, D, D - 1}, {1, 0, D}, {D, D, D}}
			buf := make([]mesh.Ent, 0, 64)
			for _, c := range cases {
				for e := range m.Iter(c[0]) {
					want := refBridge(m, e, c[1], c[2])
					buf = m.BridgeAdjacentTo(e, c[1], c[2], buf[:0])
					if !slices.Equal(buf, want) {
						t.Fatalf("BridgeAdjacentTo(%v, %d, %d) = %v, want %v", e, c[1], c[2], buf, want)
					}
					if got := m.BridgeAdjacentTo(e, c[1], c[2], nil); !slices.Equal(got, want) {
						t.Fatalf("BridgeAdjacent(%v, %d, %d) = %v, want %v", e, c[1], c[2], got, want)
					}
				}
			}
		})
	}
}

// permutations calls f with every ordering of s (Heap's algorithm); s
// is permuted in place.
func permutations(s []mesh.Ent, f func([]mesh.Ent)) {
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			f(s)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				s[i], s[k-1] = s[k-1], s[i]
			} else {
				s[0], s[k-1] = s[k-1], s[0]
			}
		}
	}
	rec(len(s))
}

func TestFindFromVertsEveryPermutation(t *testing.T) {
	for name, m := range kernelMeshes(t) {
		t.Run(name, func(t *testing.T) {
			oracle := newFindOracle(m)
			var outsider mesh.Ent
			for d := 0; d <= m.Dim(); d++ {
				for e := range m.Iter(d) {
					verts := m.VertsTo(e, nil)
					permutations(slices.Clone(verts), func(p []mesh.Ent) {
						if got := m.FindFromVerts(e.T, p); got != e {
							t.Fatalf("FindFromVerts(%v, %v) = %v, want %v", e.T, p, got, e)
						}
					})
					if d == 0 {
						outsider = e
						continue
					}
					// Near misses: one vertex swapped for every other
					// vertex of the mesh in turn (a hit when the
					// neighbor across that vertex exists), a repeated
					// vertex, a short and a long list.
					for v := range m.Iter(0) {
						if slices.Contains(verts, v) {
							continue
						}
						miss := slices.Clone(verts)
						miss[len(miss)-1] = v
						if got, want := m.FindFromVerts(e.T, miss), oracle.find(e.T, miss); got != want {
							t.Fatalf("FindFromVerts(%v, %v) = %v, want %v", e.T, miss, got, want)
						}
					}
					dup := slices.Clone(verts)
					dup[0] = dup[1]
					if got := m.FindFromVerts(e.T, dup); got.Ok() {
						t.Fatalf("FindFromVerts(%v, %v) with a repeated vertex = %v, want nil", e.T, dup, got)
					}
					if got := m.FindFromVerts(e.T, verts[:len(verts)-1]); got.Ok() {
						t.Fatalf("FindFromVerts(%v, short list) = %v, want nil", e.T, got)
					}
					if got := m.FindFromVerts(e.T, append(slices.Clone(verts), outsider)); got.Ok() {
						t.Fatalf("FindFromVerts(%v, long list) = %v, want nil", e.T, got)
					}
				}
			}
		})
	}
}

// TestFindFromVertsIsSetBijection pins the two defects of the
// membership-only comparison: a list with a repeated vertex matched any
// entity containing its distinct vertices, and an empty list indexed
// verts[0].
func TestFindFromVertsIsSetBijection(t *testing.T) {
	m := mesh.New(nil, 2)
	a := m.CreateVertex(gmi.NoRef, vec.V{})
	b := m.CreateVertex(gmi.NoRef, vec.V{X: 1})
	c := m.CreateVertex(gmi.NoRef, vec.V{Y: 1})
	tri := m.BuildFromVerts(mesh.Tri, []mesh.Ent{a, b, c}, gmi.NoRef)
	if got := m.FindFromVerts(mesh.Tri, []mesh.Ent{c, a, b}); got != tri {
		t.Fatalf("FindFromVerts(tri, {c,a,b}) = %v, want %v", got, tri)
	}
	for _, verts := range [][]mesh.Ent{{a, a, b}, {a, b, b}, {c, c, c}, {a, b}, {a, b, c, a}, {a}, {}, nil} {
		if got := m.FindFromVerts(mesh.Tri, verts); got.Ok() {
			t.Errorf("FindFromVerts(tri, %v) = %v, want nil", verts, got)
		}
	}
	for _, verts := range [][]mesh.Ent{{a, a}, {a}, {}, {a, b, c}} {
		if got := m.FindFromVerts(mesh.Edge, verts); got.Ok() {
			t.Errorf("FindFromVerts(edge, %v) = %v, want nil", verts, got)
		}
	}
	if got := m.FindFromVerts(mesh.Vertex, nil); got.Ok() {
		t.Errorf("FindFromVerts(vertex, nil) = %v, want nil", got)
	}
}

// fan builds n tets around the edge (c, top): vertex c then has n tets,
// n+1 edges and 2n faces, beyond the traversal's stack scratch.
func fan(n int) (m *mesh.Mesh, c mesh.Ent) {
	m = mesh.New(nil, 3)
	c = m.CreateVertex(gmi.NoRef, vec.V{})
	top := m.CreateVertex(gmi.NoRef, vec.V{Z: 1})
	ring := make([]mesh.Ent, n)
	for i := range ring {
		a := 2 * math.Pi * float64(i) / float64(n)
		ring[i] = m.CreateVertex(gmi.NoRef, vec.V{X: math.Cos(a), Y: math.Sin(a)})
	}
	for i := range ring {
		m.BuildFromVerts(mesh.Tet, []mesh.Ent{c, ring[i], ring[(i+1)%n], top}, gmi.NoRef)
	}
	return m, c
}

func TestAdjacentSpillsBeyondStackScratch(t *testing.T) {
	const n = 150
	m, c := fan(n)
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for dim, count := range map[int]int{1: n + 1, 2: 2 * n, 3: n} {
		want := refAdjacent(m, c, dim)
		if len(want) != count {
			t.Fatalf("fan: oracle finds %d entities of dim %d at the hub, want %d", len(want), dim, count)
		}
		if got := m.AdjacentTo(c, dim, nil); !slices.Equal(got, want) {
			t.Fatalf("AdjacentTo(hub, %d): %d entities, want %d, or out of order", dim, len(got), len(want))
		}
	}
	if got := m.UpCount(c); got != n+1 {
		t.Fatalf("UpCount(hub) = %d, want %d", got, n+1)
	}
	tet := m.AdjacentTo(c, 3, nil)[0]
	if got, want := m.BridgeAdjacentTo(tet, 0, 3, nil), refBridge(m, tet, 0, 3); !slices.Equal(got, want) {
		t.Fatalf("BridgeAdjacent(%v, 0, 3): %d entities, want %d, or out of order", tet, len(got), len(want))
	}
}

// --- BuildFromVerts against the top-down reference ---

// refBuild is BuildFromVerts in its top-down form: look the entity up by
// its vertex set and, if it is missing, build its downward entities the
// same way, in template order, and create it.
func refBuild(m *mesh.Mesh, ty mesh.Type, verts []mesh.Ent) mesh.Ent {
	if ty == mesh.Vertex {
		return verts[0]
	}
	if e := m.FindFromVerts(ty, verts); e.Ok() {
		return e
	}
	var down []mesh.Ent
	for i, dt := range mesh.DownTypesForTest[ty] {
		var dv []mesh.Ent
		for _, li := range mesh.DownVertsForTest[ty][i] {
			dv = append(dv, verts[li])
		}
		down = append(down, refBuild(m, dt, dv))
	}
	return m.CreateEntity(ty, gmi.NoRef, down)
}

// cell is one element to build: a type and indices into a vertex table.
type cell struct {
	ty mesh.Type
	v  []int
}

// buildCase is one mesh kind: its dimension, the size of its vertex
// table and the cells a build sequence draws from.
type buildCase struct {
	dim, nv int
	cells   []cell
}

func buildCases() map[string]buildCase {
	cases := map[string]buildCase{}
	box := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	var tets []cell
	for r := range box.Iter(3) {
		c := cell{ty: mesh.Tet}
		for _, v := range box.VertsTo(r, nil) {
			c.v = append(c.v, int(v.I))
		}
		tets = append(tets, c)
	}
	cases["tet"] = buildCase{3, box.Count(0), tets}

	// A 3 x 3 grid, quads and triangle pairs in a checkerboard.
	var faces []cell
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			a, b, c, d := j*4+i, j*4+i+1, (j+1)*4+i+1, (j+1)*4+i
			if (i+j)%2 == 0 {
				faces = append(faces, cell{mesh.Quad, []int{a, b, c, d}})
			} else {
				faces = append(faces, cell{mesh.Tri, []int{a, b, c}}, cell{mesh.Tri, []int{a, c, d}})
			}
		}
	}
	cases["tri+quad"] = buildCase{2, 16, faces}

	// Vertex i + 3j + 6k of a 3 x 2 x 2 lattice, 12 above the first
	// cube: a hex, two prisms filling the second cube, a pyramid on the
	// hex and a tet on each prism's top triangle, all meeting the apex.
	cases["mixed"] = buildCase{3, 13, []cell{
		{mesh.Hex, []int{0, 1, 4, 3, 6, 7, 10, 9}},
		{mesh.Prism, []int{1, 2, 4, 7, 8, 10}},
		{mesh.Prism, []int{2, 5, 4, 8, 11, 10}},
		{mesh.Pyramid, []int{6, 7, 10, 9, 12}},
		{mesh.Tet, []int{7, 10, 12, 8}},
		{mesh.Tet, []int{8, 11, 10, 12}},
	}}
	return cases
}

// TestBuildFromVertsMatchesTopDownReference drives BuildFromVerts and
// refBuild through one seeded sequence of builds and recursive destroys,
// each on its own mesh. Freed slots come back through the free lists, so
// the handles agree only while both create the same entities in the same
// order; the files agree only if the stored topology does too. In the
// known runs every build also names the sides of every live cell as
// known entities — some of the new cell's, most not, past what a build
// records — which may change what is searched, never what is built.
func TestBuildFromVertsMatchesTopDownReference(t *testing.T) {
	//pumi-vet:ignore maporder // each case builds its own meshes; meshio.Write packs a standalone buffer
	for name, c := range buildCases() {
		for _, withKnown := range []bool{false, true} {
			if withKnown {
				name += "/known"
			}
			t.Run(name, func(t *testing.T) { buildAgainstReference(t, c, withKnown) })
		}
	}
}

func buildAgainstReference(t *testing.T, c buildCase, withKnown bool) {
	got, want := mesh.New(nil, c.dim), mesh.New(nil, c.dim)
	vs := slices.Repeat([]mesh.Ent{mesh.NilEnt}, c.nv)
	got.OnDestroy(func(e mesh.Ent) {
		if i := slices.Index(vs, e); i >= 0 {
			vs[i] = mesh.NilEnt
		}
	})
	rng := rand.New(rand.NewSource(20))
	var live []mesh.Ent
	builds, hits, destroys := 0, 0, 0
	for step := 0; step < 600; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			got.DestroyRecursive(live[k])
			want.DestroyRecursive(live[k])
			live = slices.Delete(live, k, k+1)
			destroys++
			continue
		}
		cl := c.cells[rng.Intn(len(c.cells))]
		verts := make([]mesh.Ent, len(cl.v))
		for j, i := range cl.v {
			if !vs[i].Ok() {
				p := vec.V{X: float64(i)}
				vs[i] = got.CreateVertex(gmi.NoRef, p)
				if w := want.CreateVertex(gmi.NoRef, p); w != vs[i] {
					t.Fatalf("step %d: vertex %d is %v, reference %v", step, i, vs[i], w)
				}
			}
			verts[j] = vs[i]
		}
		var known []mesh.Ent
		if withKnown {
			for _, e := range live {
				known = got.DownTo(e, known)
			}
		}
		a, b := got.BuildFromVerts(cl.ty, verts, gmi.NoRef, known...), refBuild(want, cl.ty, verts)
		if a != b {
			t.Fatalf("step %d: BuildFromVerts(%v, %v) = %v, reference %v", step, cl.ty, verts, a, b)
		}
		for d := 0; d <= c.dim; d++ {
			if got.Count(d) != want.Count(d) {
				t.Fatalf("step %d: %d entities of dimension %d, reference %d", step, got.Count(d), d, want.Count(d))
			}
		}
		if slices.Contains(live, a) {
			hits++
		} else {
			live = append(live, a)
			builds++
		}
	}
	if builds == 0 || hits == 0 || destroys == 0 {
		t.Fatalf("sequence did %d builds, %d rebuilds of a live cell, %d destroys; want all three", builds, hits, destroys)
	}
	if err := got.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var gb, wb bytes.Buffer
	if err := meshio.Write(&gb, got); err != nil {
		t.Fatal(err)
	}
	if err := meshio.Write(&wb, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("meshio.Write differs from the reference mesh's (%d vs %d bytes)", gb.Len(), wb.Len())
	}
}

// refSplit is adapt.SplitEdge's topology with every element built by
// BuildFromVerts from vertices alone: mid, two children per element
// around the edge, then the orphans.
func refSplit(m *mesh.Mesh, edge mesh.Ent) {
	ends := m.DownTo(edge, nil)
	mid := m.CreateVertex(m.Classification(edge), vec.Mid(m.Coord(ends[0]), m.Coord(ends[1])))
	els := m.AdjacentTo(edge, m.Dim(), nil)
	faces := m.AdjacentTo(edge, 2, nil)
	for _, el := range els {
		verts := m.VertsTo(el, nil)
		for _, drop := range []mesh.Ent{ends[1], ends[0]} {
			nv := slices.Clone(verts)
			nv[slices.Index(nv, drop)] = mid
			m.BuildFromVerts(el.T, nv, m.Classification(el))
		}
	}
	for _, el := range els {
		m.Destroy(el)
	}
	for _, e := range append(faces, edge) {
		if m.Alive(e) && !m.HasUp(e) {
			m.Destroy(e)
		}
	}
}

// refCollapse is adapt.CollapseEdge's topology with every replacement
// built by BuildFromVerts from vertices alone, and the orphans swept
// highest dimension first, then by handle.
func refCollapse(m *mesh.Mesh, removed, kept mesh.Ent) {
	cavity := m.AdjacentTo(removed, m.Dim(), nil)
	var sides []mesh.Ent
	for _, el := range cavity {
		verts := m.VertsTo(el, nil)
		for dd := 1; dd < m.Dim(); dd++ {
			sides = m.AdjacentTo(el, dd, sides)
		}
		if slices.Contains(verts, kept) {
			continue
		}
		verts[slices.Index(verts, removed)] = kept
		m.BuildFromVerts(el.T, verts, m.Classification(el))
	}
	for _, el := range cavity {
		m.Destroy(el)
	}
	slices.SortFunc(sides, func(a, b mesh.Ent) int {
		if a.Dim() != b.Dim() {
			return b.Dim() - a.Dim()
		}
		return a.Compare(b)
	})
	for _, e := range slices.Compact(sides) {
		if m.Alive(e) && !m.HasUp(e) {
			m.Destroy(e)
		}
	}
	if !m.HasUp(removed) {
		m.Destroy(removed)
	}
}

// TestSplitAndCollapseMatchBuildFromVerts plays seeded splits and
// collapses through adapt's operators, which build from known downward
// entities and a collapse's recorded cavity, and the same operations
// through refSplit and refCollapse on a twin mesh: both must create and
// destroy the same handles in the same order. The twins start as one
// churned box, refined to a band and coarsened again, so creations reuse
// freed slots. Each collapse goes through the public CanCollapse and
// CollapseEdge pair.
func TestSplitAndCollapseMatchBuildFromVerts(t *testing.T) {
	churned := func() *mesh.Mesh {
		m := meshgen.Box3D(gmi.Box(1, 1, 1), 3, 3, 3)
		band := func(p vec.V) float64 { return 0.12 + 0.4*math.Abs(p.X-0.5) }
		adapt.Refine(m, band, nil, 4)
		adapt.Coarsen(m, adapt.Uniform(0.5), nil, 2)
		return m
	}
	got, want := churned(), churned()
	var gotLog, wantLog []string
	for _, tw := range []struct {
		m   *mesh.Mesh
		log *[]string
	}{{got, &gotLog}, {want, &wantLog}} {
		tw.m.OnCreate(func(e mesh.Ent) { *tw.log = append(*tw.log, "+"+e.String()) })
		tw.m.OnDestroy(func(e mesh.Ent) { *tw.log = append(*tw.log, "-"+e.String()) })
	}
	rng := rand.New(rand.NewSource(7))
	splits, collapses := 0, 0
	for step := 0; step < 400; step++ {
		edges := slices.Collect(got.Iter(1))
		e := edges[rng.Intn(len(edges))]
		if rng.Intn(2) == 0 {
			adapt.SplitEdge(got, e, nil)
			refSplit(want, e)
			splits++
		} else {
			ends := got.DownTo(e, nil)
			if rng.Intn(2) == 0 {
				ends[0], ends[1] = ends[1], ends[0]
			}
			if !adapt.CanCollapse(got, e, ends[0], ends[1]) {
				continue
			}
			adapt.CollapseEdge(got, e, ends[0], ends[1], nil)
			refCollapse(want, ends[0], ends[1])
			collapses++
		}
		if !slices.Equal(gotLog, wantLog) {
			t.Fatalf("step %d: operators logged %d creations and destructions, the reference %d; first difference at %d",
				step, len(gotLog), len(wantLog), firstDifference(gotLog, wantLog))
		}
	}
	if splits < 50 || collapses < 20 {
		t.Fatalf("%d splits, %d collapses: too few to compare", splits, collapses)
	}
	for _, m := range []*mesh.Mesh{got, want} {
		if err := m.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}

func firstDifference(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestBuildFromVertsRejectsRepeatedVertex: a repeated vertex used to
// find nothing, then create a fresh degenerate edge (a, a) and an entity
// using one edge twice on every call, which CheckConsistency let pass.
func TestBuildFromVertsRejectsRepeatedVertex(t *testing.T) {
	m := mesh.New(nil, 3)
	var v [4]mesh.Ent
	for i := range v {
		v[i] = m.CreateVertex(gmi.NoRef, vec.V{X: float64(i)})
	}
	for ty, verts := range map[mesh.Type][]mesh.Ent{
		mesh.Edge: {v[1], v[1]},
		mesh.Tri:  {v[0], v[1], v[1]},
		mesh.Quad: {v[0], v[1], v[2], v[1]},
		mesh.Tet:  {v[2], v[3], v[1], v[1]},
	} {
		func() {
			defer func() {
				want := fmt.Sprintf("mesh: %v lists vertex %v twice", ty, v[1])
				if msg := fmt.Sprint(recover()); msg != want {
					t.Errorf("BuildFromVerts(%v, %v) panicked with %q, want %q", ty, verts, msg, want)
				}
			}()
			m.BuildFromVerts(ty, verts, gmi.NoRef)
			t.Errorf("BuildFromVerts(%v, %v) returned", ty, verts)
		}()
	}
	if n := m.Count(1) + m.Count(2) + m.Count(3); n != 0 {
		t.Errorf("rejected builds left %d entities behind", n)
	}
}

// --- Allocation pins ---

// interior returns a vertex of m with the most regions around it, one
// of those regions, and one of its edges.
func interior(m *mesh.Mesh) (v, rgn, edge mesh.Ent) {
	best := 0
	for x := range m.Iter(0) {
		if n := len(m.AdjacentTo(x, 3, nil)); n > best {
			best, v = n, x
		}
	}
	return v, m.AdjacentTo(v, 3, nil)[0], m.AdjacentTo(v, 1, nil)[0]
}

func TestKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 4, 4, 4)
	v, rgn, edge := interior(m)
	buf := make([]mesh.Ent, 0, 256)
	words := make([]uint32, 0, 32)
	hit := m.VertsTo(rgn, nil)
	miss := slices.Clone(hit)
	for x := range m.Iter(0) {
		miss[3] = x
		if !slices.Contains(hit, x) && !m.FindFromVerts(mesh.Tet, miss).Ok() {
			break
		}
	}
	sink := 0
	pins := map[string]func(){
		"AdjacentTo vtx→rgn":      func() { buf = m.AdjacentTo(v, 3, buf[:0]) },
		"AdjacentTo rgn→vtx":      func() { buf = m.AdjacentTo(rgn, 0, buf[:0]) },
		"AdjacentTo edge→rgn":     func() { buf = m.AdjacentTo(edge, 3, buf[:0]) },
		"BridgeAdjacentTo rgn":    func() { buf = m.BridgeAdjacentTo(rgn, 2, 3, buf[:0]) },
		"ClosureTo rgn":           func() { words = m.ClosureTo(rgn, words[:0]) },
		"VertsTo rgn":             func() { buf = m.VertsTo(rgn, buf[:0]) },
		"UpCount vtx":             func() { sink += m.UpCount(v) },
		"UpCount edge":            func() { sink += m.UpCount(edge) },
		"FindFromVerts hit":       func() { sink += int(m.FindFromVerts(mesh.Tet, hit).I) },
		"FindFromVerts miss":      func() { sink += int(m.FindFromVerts(mesh.Tet, miss).I) },
		"BuildFromVerts existing": func() { sink += int(m.BuildFromVerts(mesh.Tet, hit, gmi.NoRef).I) },
		"Centroid rgn":            func() { sink += int(m.Centroid(rgn).X) },
		"Measure rgn":             func() { sink += int(m.Measure(rgn)) },
	}
	if m.FindFromVerts(mesh.Tet, miss).Ok() || m.FindFromVerts(mesh.Tet, hit) != rgn {
		t.Fatal("hit/miss vertex lists are not what they claim")
	}
	// A free-standing tet torn down to its vertices and rebuilt: every
	// level of BuildFromVerts creates, into slots the first build grew.
	var lone [4]mesh.Ent
	for i, p := range []vec.V{{X: 2}, {X: 3}, {X: 2, Y: 1}, {X: 2, Z: 1}} {
		lone[i] = m.CreateVertex(gmi.NoRef, p)
	}
	built := m.BuildFromVerts(mesh.Tet, lone[:], gmi.NoRef)
	var faces, edges [6]mesh.Ent
	pins["BuildFromVerts create"] = func() {
		fs := m.DownTo(built, faces[:0])
		es := m.AdjacentTo(built, 1, edges[:0])
		m.Destroy(built)
		for _, f := range fs {
			m.Destroy(f)
		}
		for _, e := range es {
			m.Destroy(e)
		}
		built = m.BuildFromVerts(mesh.Tet, lone[:], gmi.NoRef)
	}
	for name, f := range pins {
		if got := testing.AllocsPerRun(100, f); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
	// With no buffer to fill, the upward result is reserved once, not
	// grown an entity at a time.
	if got := testing.AllocsPerRun(100, func() { sink += len(m.AdjacentTo(v, 3, nil)) }); got != 1 {
		t.Errorf("AdjacentTo vtx→rgn into a nil buffer: %v allocs/op, want 1", got)
	}
	_ = sink
}

// TestSortEntsMatchesCompare sorts seeded handles over all eight types,
// the last index a type can hold among them, and checks SortEnts against
// slices.SortFunc with Ent.Compare: short lists in its stack scratch,
// long ones in the caller's, which it grows once and then reuses without
// allocating.
func TestSortEntsMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var scratch []uint32
	for _, n := range []int{0, 1, 7, 128, 129, 5000} {
		ents := make([]mesh.Ent, n)
		for i := range ents {
			ents[i] = mesh.Ent{T: mesh.Type(rng.Intn(int(mesh.TypeCount))), I: int32(rng.Intn(40))}
			if rng.Intn(8) == 0 {
				ents[i].I = mesh.MaxSlots - 1 - int32(rng.Intn(2))
			}
		}
		want := slices.Clone(ents)
		slices.SortFunc(want, mesh.Ent.Compare)
		shuffled := slices.Clone(ents)
		scratch = mesh.SortEnts(ents, scratch)
		if !slices.Equal(ents, want) {
			t.Fatalf("n=%d: SortEnts and SortFunc(Ent.Compare) disagree", n)
		}
		if raceEnabled {
			continue
		}
		if got := testing.AllocsPerRun(10, func() {
			copy(ents, shuffled)
			scratch = mesh.SortEnts(ents, scratch)
		}); got != 0 {
			t.Errorf("n=%d: %v allocs/op with the caller's scratch, want 0", n, got)
		}
	}
}

// TestReserve pins Reserve's contract: it returns the slot count the
// room extends to, free slots count toward the room, and creating the
// entities reserved for allocates nothing.
func TestReserve(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 64
	m := mesh.New(nil, 3)
	// AllocsPerRun runs the build twice.
	for ty, want := range map[mesh.Type]int{mesh.Vertex: 2 * (n + 3), mesh.Edge: 2 * (3*n + 3), mesh.Tri: 2 * (3*n + 1), mesh.Tet: 2 * n} {
		if got := m.Reserve(ty, want); got != want {
			t.Fatalf("Reserve(%v, %d) on an empty mesh = %d", ty, want, got)
		}
	}
	// A fan of n tets around one edge: each new tet brings one vertex,
	// three edges and three faces.
	build := func() {
		var vs [n + 3]mesh.Ent
		for i := range vs {
			vs[i] = m.CreateVertex(gmi.NoRef, vec.V{X: float64(i)})
		}
		for i := 0; i < n; i++ {
			m.BuildFromVerts(mesh.Tet, []mesh.Ent{vs[0], vs[1], vs[i+2], vs[i+3]}, gmi.NoRef)
		}
	}
	if got := testing.AllocsPerRun(1, build); got != 0 {
		t.Errorf("building into reserved storage: %v allocs, want 0", got)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	slots := m.Reserve(mesh.Tet, 0)
	var tets []mesh.Ent
	for el := range m.Elements() {
		tets = append(tets, el)
	}
	for _, el := range tets[:10] {
		m.Destroy(el)
	}
	if got := m.Reserve(mesh.Tet, 10); got != slots {
		t.Errorf("Reserve(tet, 10) with 10 free slots extends to %d slots, want the %d there are", got, slots)
	}
	if got := m.Reserve(mesh.Tet, 15); got != slots+5 {
		t.Errorf("Reserve(tet, 15) with 10 free slots extends to %d slots, want %d", got, slots+5)
	}
}

// --- Micro-benchmarks (bench-smoke lane; use -benchmem) ---

func BenchmarkAdjacentTo(b *testing.B) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 10, 10, 10)
	buf := make([]mesh.Ent, 0, 256)
	for _, c := range []struct {
		name     string
		from, to int
	}{{"vtx→rgn", 0, 3}, {"rgn→vtx", 3, 0}, {"edge→rgn", 1, 3}, {"rgn→edge", 3, 1}, {"vtx→edge", 0, 1}} {
		var ents []mesh.Ent
		for e := range m.Iter(c.from) {
			ents = append(ents, e)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				buf = m.AdjacentTo(ents[i%len(ents)], c.to, buf[:0])
				n += len(buf)
			}
			if n == 0 {
				b.Fatal("no adjacencies")
			}
		})
	}
}

func BenchmarkFindFromVerts(b *testing.B) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 10, 10, 10)
	var hits, misses [][4]mesh.Ent
	for r := range m.Iter(3) {
		var h [4]mesh.Ent
		copy(h[:], m.VertsTo(r, nil))
		hits = append(hits, h)
		// Swapping the apex for the far corner of the mesh keeps three
		// vertices of a real face, so the walk gets as far as it can.
		h[3] = mesh.Ent{T: mesh.Vertex, I: int32(m.Count(0)) - 1 - h[3].I}
		if !slices.Contains(h[:3], h[3]) && !m.FindFromVerts(mesh.Tet, h[:]).Ok() {
			misses = append(misses, h)
		}
	}
	for name, lists := range map[string][][4]mesh.Ent{"hit": hits, "miss": misses} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			found := 0
			for i := 0; i < b.N; i++ {
				if m.FindFromVerts(mesh.Tet, lists[i%len(lists)][:]).Ok() {
					found++
				}
			}
			if (name == "hit") != (found == b.N) || (name == "miss") != (found == 0) {
				b.Fatalf("%s: found %d of %d", name, found, b.N)
			}
		})
	}
}

// BenchmarkBuildTet times BuildFromVerts(Tet) over Box3D's 6,000-tet Kuhn
// grid, rebuilt from its own connectivity. fresh builds each tet into a
// mesh that holds the neighbors built so far, as mesh construction does;
// existing asks again for a tet that is there, the pure look-up path.
func BenchmarkBuildTet(b *testing.B) {
	src := meshgen.Box3D(gmi.Box(1, 1, 1), 10, 10, 10)
	var tets [][4]mesh.Ent
	for r := range src.Iter(3) {
		var t [4]mesh.Ent
		copy(t[:], src.VertsTo(r, nil))
		tets = append(tets, t)
	}
	var m *mesh.Mesh
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(tets)
			if k == 0 {
				b.StopTimer()
				m = mesh.New(nil, 3)
				for v := range src.Iter(0) {
					m.CreateVertex(gmi.NoRef, src.Coord(v))
				}
				b.StartTimer()
			}
			m.BuildFromVerts(mesh.Tet, tets[k][:], gmi.NoRef)
		}
		if m.Count(3) == 0 {
			b.Fatal("built nothing")
		}
	})
	b.Run("existing", func(b *testing.B) {
		b.ReportAllocs()
		before := src.Count(3)
		for i := 0; i < b.N; i++ {
			src.BuildFromVerts(mesh.Tet, tets[i%len(tets)][:], gmi.NoRef)
		}
		if src.Count(3) != before {
			b.Fatal("a rebuild created a tet")
		}
	})
}
