package mesh

import (
	"math"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/vec"
)

// newTestMesh returns a 3D mesh with no model.
func newTestMesh() *Mesh { return New(nil, 3) }

func mkVerts(m *Mesh, pts ...vec.V) []Ent {
	out := make([]Ent, len(pts))
	for i, p := range pts {
		out[i] = m.CreateVertex(gmi.NoRef, p)
	}
	return out
}

func singleTet(m *Mesh) (Ent, []Ent) {
	vs := mkVerts(m,
		vec.V{}, vec.V{X: 1}, vec.V{Y: 1}, vec.V{Z: 1})
	t := m.BuildFromVerts(Tet, vs, gmi.NoRef)
	return t, vs
}

func TestSingleTetCounts(t *testing.T) {
	m := newTestMesh()
	tet, _ := singleTet(m)
	if m.Count(0) != 4 || m.Count(1) != 6 || m.Count(2) != 4 || m.Count(3) != 1 {
		t.Fatalf("counts = %d %d %d %d", m.Count(0), m.Count(1), m.Count(2), m.Count(3))
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if !m.Alive(tet) {
		t.Fatal("tet not alive")
	}
	if m.CountType(Tri) != 4 || m.CountType(Quad) != 0 {
		t.Fatal("face types wrong")
	}
}

func TestTetAdjacencies(t *testing.T) {
	m := newTestMesh()
	tet, vs := singleTet(m)
	if got := m.AdjacentTo(tet, 0, nil); len(got) != 4 {
		t.Fatalf("tet verts = %v", got)
	}
	if got := m.AdjacentTo(tet, 1, nil); len(got) != 6 {
		t.Fatalf("tet edges = %v", got)
	}
	if got := m.AdjacentTo(vs[0], 3, nil); len(got) != 1 || got[0] != tet {
		t.Fatalf("vert regions = %v", got)
	}
	if got := m.AdjacentTo(vs[0], 1, nil); len(got) != 3 {
		t.Fatalf("vert edges = %v", got)
	}
	if got := m.AdjacentTo(vs[0], 2, nil); len(got) != 3 {
		t.Fatalf("vert faces = %v", got)
	}
	// Same-dim adjacency returns nil.
	if m.AdjacentTo(tet, 3, nil) != nil {
		t.Fatal("same-dim adjacency should be nil")
	}
	// Down of tet: 4 tris in canonical order.
	down := m.DownTo(tet, nil)
	if len(down) != 4 {
		t.Fatal("down count")
	}
	for _, f := range down {
		if f.T != Tri {
			t.Fatalf("tet face type %v", f.T)
		}
		ups := m.UpTo(f, nil)
		if len(ups) != 1 || ups[0] != tet {
			t.Fatalf("face up = %v", ups)
		}
	}
}

func TestTwoTetsShareFace(t *testing.T) {
	m := newTestMesh()
	vs := mkVerts(m,
		vec.V{}, vec.V{X: 1}, vec.V{Y: 1}, vec.V{Z: 1}, vec.V{Z: -1})
	t1 := m.BuildFromVerts(Tet, []Ent{vs[0], vs[1], vs[2], vs[3]}, gmi.NoRef)
	t2 := m.BuildFromVerts(Tet, []Ent{vs[0], vs[1], vs[2], vs[4]}, gmi.NoRef)
	if m.Count(3) != 2 {
		t.Fatal("two tets expected")
	}
	// The shared face (0,1,2) must exist exactly once.
	if m.Count(2) != 7 {
		t.Fatalf("face count = %d, want 7", m.Count(2))
	}
	shared := m.FindFromVerts(Tri, []Ent{vs[0], vs[1], vs[2]})
	if !shared.Ok() {
		t.Fatal("shared face not found")
	}
	ups := m.UpTo(shared, nil)
	if len(ups) != 2 {
		t.Fatalf("shared face ups = %v", ups)
	}
	// Second-order adjacency: t1's face-neighbors = {t2}.
	nb := m.BridgeAdjacentTo(t1, 2, 3, nil)
	if len(nb) != 1 || nb[0] != t2 {
		t.Fatalf("bridge = %v", nb)
	}
	// Vertex-bridged neighbors too.
	nbv := m.BridgeAdjacentTo(t1, 0, 3, nil)
	if len(nbv) != 1 || nbv[0] != t2 {
		t.Fatalf("vertex bridge = %v", nbv)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestVertsRecovery(t *testing.T) {
	m := newTestMesh()
	tet, vs := singleTet(m)
	got := m.VertsTo(tet, nil)
	if len(got) != 4 {
		t.Fatalf("verts = %v", got)
	}
	set := map[Ent]bool{}
	for _, v := range got {
		set[v] = true
	}
	for _, v := range vs {
		if !set[v] {
			t.Fatalf("missing vertex %v", v)
		}
	}
	// Face verts come back as a cycle of the right vertices.
	f := m.DownTo(tet, nil)[0]
	fv := m.VertsTo(f, nil)
	if len(fv) != 3 {
		t.Fatalf("face verts = %v", fv)
	}
	// Edge verts are its down.
	e := m.DownTo(f, nil)[0]
	ev := m.VertsTo(e, nil)
	if len(ev) != 2 {
		t.Fatal("edge verts")
	}
	// Vertex verts is itself.
	if vv := m.VertsTo(vs[0], nil); len(vv) != 1 || vv[0] != vs[0] {
		t.Fatal("vertex verts")
	}
}

func TestHexPrismPyramidBuild(t *testing.T) {
	m := newTestMesh()
	// Unit hex.
	hv := mkVerts(m,
		vec.V{}, vec.V{X: 1}, vec.V{X: 1, Y: 1}, vec.V{Y: 1},
		vec.V{Z: 1}, vec.V{X: 1, Z: 1}, vec.V{X: 1, Y: 1, Z: 1}, vec.V{Y: 1, Z: 1})
	hex := m.BuildFromVerts(Hex, hv, gmi.NoRef)
	if m.CountType(Quad) != 6 || m.Count(1) != 12 {
		t.Fatalf("hex: %d quads, %d edges", m.CountType(Quad), m.Count(1))
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	got := m.VertsTo(hex, nil)
	if len(got) != 8 {
		t.Fatalf("hex verts = %d", len(got))
	}
	// The recovered bottom/top pairing must be vertical partners.
	for i := 0; i < 4; i++ {
		b := m.Coord(got[i])
		tp := m.Coord(got[i+4])
		if b.X != tp.X || b.Y != tp.Y {
			t.Fatalf("vertical partner mismatch: %v over %v", tp, b)
		}
	}
	if v := m.Measure(hex); v < 0.99 || v > 1.01 {
		t.Fatalf("hex volume = %g", v)
	}

	// Prism on its own mesh.
	m2 := newTestMesh()
	pv := mkVerts(m2,
		vec.V{}, vec.V{X: 1}, vec.V{Y: 1},
		vec.V{Z: 1}, vec.V{X: 1, Z: 1}, vec.V{Y: 1, Z: 1})
	prism := m2.BuildFromVerts(Prism, pv, gmi.NoRef)
	if m2.CountType(Tri) != 2 || m2.CountType(Quad) != 3 {
		t.Fatalf("prism faces: %d tri %d quad", m2.CountType(Tri), m2.CountType(Quad))
	}
	if err := m2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := m2.VertsTo(prism, nil); len(got) != 6 {
		t.Fatalf("prism verts = %d", len(got))
	}
	if v := m2.Measure(prism); v < 0.49 || v > 0.51 {
		t.Fatalf("prism volume = %g", v)
	}

	// Pyramid.
	m3 := newTestMesh()
	yv := mkVerts(m3,
		vec.V{}, vec.V{X: 1}, vec.V{X: 1, Y: 1}, vec.V{Y: 1},
		vec.V{X: 0.5, Y: 0.5, Z: 1})
	pyr := m3.BuildFromVerts(Pyramid, yv, gmi.NoRef)
	if m3.CountType(Tri) != 4 || m3.CountType(Quad) != 1 {
		t.Fatal("pyramid faces wrong")
	}
	if err := m3.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	got = m3.VertsTo(pyr, nil)
	if len(got) != 5 || got[4] != yv[4] {
		t.Fatalf("pyramid verts = %v", got)
	}
	if v := m3.Measure(pyr); v < 1.0/3-0.01 || v > 1.0/3+0.01 {
		t.Fatalf("pyramid volume = %g", v)
	}
}

func TestDestroyAndReuse(t *testing.T) {
	m := newTestMesh()
	tet, _ := singleTet(m)
	// Destroying a face with ups panics.
	f := m.DownTo(tet, nil)[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("destroy of bounded face did not panic")
			}
		}()
		m.Destroy(f)
	}()
	m.Destroy(tet)
	if m.Count(3) != 0 {
		t.Fatal("tet not destroyed")
	}
	// Faces now have no ups and can go recursively.
	for _, fc := range []Ent{f} {
		m.DestroyRecursive(fc)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Rebuild a tet; slots must be reused without corruption.
	before := m.Count(0)
	tet2, _ := singleTet(m)
	if !m.Alive(tet2) {
		t.Fatal("rebuild failed")
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	_ = before
}

func TestDestroyRecursiveCleansEverything(t *testing.T) {
	m := newTestMesh()
	tet, _ := singleTet(m)
	m.Destroy(tet)
	for _, f := range ds_Collect(m.Iter(2)) {
		m.DestroyRecursive(f)
	}
	if m.Count(0)+m.Count(1)+m.Count(2)+m.Count(3) != 0 {
		t.Fatalf("leftovers: %d %d %d %d", m.Count(0), m.Count(1), m.Count(2), m.Count(3))
	}
}

func ds_Collect(seq func(func(Ent) bool)) []Ent {
	var out []Ent
	seq(func(e Ent) bool { out = append(out, e); return true })
	return out
}

func TestFindByDownAndFromVerts(t *testing.T) {
	m := newTestMesh()
	tet, vs := singleTet(m)
	e := m.FindFromVerts(Edge, []Ent{vs[0], vs[1]})
	if !e.Ok() {
		t.Fatal("edge not found")
	}
	if m.FindFromVerts(Edge, []Ent{vs[0], vs[0]}).Ok() {
		t.Fatal("degenerate edge found")
	}
	f := m.FindFromVerts(Tri, []Ent{vs[2], vs[0], vs[1]}) // order-insensitive
	if !f.Ok() {
		t.Fatal("tri not found by permuted verts")
	}
	if got := m.FindFromVerts(Tet, []Ent{vs[0], vs[1], vs[2], vs[3]}); got != tet {
		t.Fatalf("tet find = %v", got)
	}
	// BuildFromVerts of an existing entity returns it.
	if got := m.BuildFromVerts(Tet, vs, gmi.NoRef); got != tet {
		t.Fatal("rebuild created a duplicate")
	}
	if m.Count(3) != 1 {
		t.Fatal("duplicate region created")
	}
}

func TestIterationOrderDeterministic(t *testing.T) {
	m := newTestMesh()
	singleTet(m)
	first := ds_Collect(m.Iter(1))
	second := ds_Collect(m.Iter(1))
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("iteration order unstable")
		}
	}
	if len(first) != 6 {
		t.Fatalf("edges = %d", len(first))
	}
}

func TestCoordsAndMeasure(t *testing.T) {
	m := newTestMesh()
	tet, vs := singleTet(m)
	if v := m.Measure(tet); v < 1.0/6-1e-12 || v > 1.0/6+1e-12 {
		t.Fatalf("tet volume = %g", v)
	}
	e := m.FindFromVerts(Edge, []Ent{vs[0], vs[1]})
	if l := m.Measure(e); l != 1 {
		t.Fatalf("edge length = %g", l)
	}
	m.SetCoord(vs[1], vec.V{X: 2})
	if l := m.Measure(e); l != 2 {
		t.Fatalf("moved edge length = %g", l)
	}
	c := m.Centroid(e)
	if c != (vec.V{X: 1}) {
		t.Fatalf("centroid = %v", c)
	}
	// Quality: unit right tet is less regular than 1 but > 0.
	q := m.MeanRatioQuality(tet)
	if q <= 0 || q > 1 {
		t.Fatalf("quality = %g", q)
	}
}

func TestTagsSetsOnEntities(t *testing.T) {
	m := newTestMesh()
	tet, vs := singleTet(m)
	w, err := m.Tags.Create("weight", ds.TagFloat, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Tags.SetFloat(w, tet, 2.5)
	if v, ok := m.Tags.GetFloat(w, tet); !ok || v != 2.5 {
		t.Fatal("tag round trip")
	}
	s := m.Set("bc-verts")
	s.Add(vs[0])
	s.Add(vs[1])
	if m.Set("bc-verts").Len() != 2 {
		t.Fatal("set persistence")
	}
	// Destroying an entity cleans its tag and set membership.
	m.Destroy(tet)
	if _, ok := m.Tags.GetFloat(w, tet); ok {
		t.Fatal("tag survived destroy")
	}
	f := m.FindFromVerts(Tri, []Ent{vs[0], vs[1], vs[2]})
	s.Add(f)
	m.DestroyRecursive(f)
	if s.Has(f) {
		t.Fatal("set member survived destroy")
	}
}

func TestClassificationStorage(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := New(model.Model, 3)
	v := m.CreateVertex(gmi.Ref{Dim: 0, Tag: 1}, vec.V{})
	if m.Classification(v) != (gmi.Ref{Dim: 0, Tag: 1}) {
		t.Fatal("classification storage")
	}
	m.SetClassification(v, gmi.Ref{Dim: 3, Tag: 1})
	if m.Classification(v).Dim != 3 {
		t.Fatal("reclassification")
	}
	// CheckConsistency validates classification resolves.
	m.SetClassification(v, gmi.Ref{Dim: 2, Tag: 99})
	if err := m.CheckConsistency(); err == nil {
		t.Fatal("bogus classification accepted")
	}
}

func TestRemoteCopiesAndResidence(t *testing.T) {
	m := newTestMesh()
	m.SetPart(1)
	_, vs := singleTet(m)
	v := vs[0]
	if m.IsShared(v) {
		t.Fatal("fresh vertex shared")
	}
	m.SetRemote(v, 0, Ent{T: Vertex, I: 7})
	m.SetRemote(v, 2, Ent{T: Vertex, I: 9})
	if !m.IsShared(v) {
		t.Fatal("not shared after SetRemote")
	}
	res := m.Residence(v)
	if res.Len() != 3 || !res.Has(0) || !res.Has(1) || !res.Has(2) {
		t.Fatalf("residence = %v", res.Values())
	}
	if got := m.AppendRemoteParts(v, nil); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("remote parts = %v", got)
	}
	h, ok := m.RemoteCopy(v, 2)
	if !ok || h.I != 9 {
		t.Fatal("remote copy lookup")
	}
	m.RemoveRemote(v, 0)
	if got := m.AppendRemoteParts(v, nil); len(got) != 1 {
		t.Fatalf("after remove: %v", got)
	}
	m.ClearRemotes(v)
	if m.IsShared(v) {
		t.Fatal("still shared after clear")
	}
	// Ownership.
	if !m.IsOwned(v) || m.Owner(v) != 1 {
		t.Fatal("default owner should be own part")
	}
	m.SetOwner(v, 0)
	if m.IsOwned(v) {
		t.Fatal("owner change ignored")
	}
	// Ghost flag.
	m.SetGhost(v, true)
	if !m.IsGhost(v) {
		t.Fatal("ghost flag")
	}
	m.SetRemote(v, 5, v)
	if m.IsShared(v) {
		t.Fatal("ghosts are not shared")
	}
	m.SetGhost(v, false)
	if m.IsGhost(v) {
		t.Fatal("ghost unset")
	}
}

func TestNeighborPartsAndBoundaryIter(t *testing.T) {
	m := newTestMesh()
	m.SetPart(0)
	_, vs := singleTet(m)
	m.SetRemote(vs[0], 1, vs[0])
	m.SetRemote(vs[1], 2, vs[1])
	m.SetRemote(vs[1], 1, vs[1])
	nb := m.NeighborParts(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("neighbors = %v", nb)
	}
	if got := m.NeighborParts(1); len(got) != 0 {
		t.Fatalf("edge neighbors = %v", got)
	}
	n := 0
	for range m.PartBoundary(0) {
		n++
	}
	if n != 2 {
		t.Fatalf("boundary verts = %d", n)
	}
	stats := m.ComputeStats()
	if stats.Shared[0] != 2 || stats.Counts[0] != 4 || stats.Counts[3] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestUpCountAndHasUp(t *testing.T) {
	m := newTestMesh()
	vs := mkVerts(m,
		vec.V{}, vec.V{X: 1}, vec.V{Y: 1}, vec.V{Z: 1}, vec.V{Z: -1})
	m.BuildFromVerts(Tet, []Ent{vs[0], vs[1], vs[2], vs[3]}, gmi.NoRef)
	m.BuildFromVerts(Tet, []Ent{vs[0], vs[1], vs[2], vs[4]}, gmi.NoRef)
	shared := m.FindFromVerts(Tri, []Ent{vs[0], vs[1], vs[2]})
	if m.UpCount(shared) != 2 {
		t.Fatalf("UpCount = %d", m.UpCount(shared))
	}
	if !m.HasUp(shared) {
		t.Fatal("HasUp")
	}
	lone := m.CreateVertex(gmi.NoRef, vec.V{X: 9})
	if m.HasUp(lone) || m.UpCount(lone) != 0 {
		t.Fatal("lone vertex has ups")
	}
}

// TestMixedElementMesh builds a mesh combining a hex, a prism, and a
// pyramid sharing faces, validating mixed-topology storage and the
// shared-face semantics of BuildFromVerts across element types.
func TestMixedElementMesh(t *testing.T) {
	m := newTestMesh()
	// A unit hex [0,1]^3 with a prism on its +y face and a pyramid on
	// its +x face.
	hv := mkVerts(m,
		vec.V{}, vec.V{X: 1}, vec.V{X: 1, Y: 1}, vec.V{Y: 1},
		vec.V{Z: 1}, vec.V{X: 1, Z: 1}, vec.V{X: 1, Y: 1, Z: 1}, vec.V{Y: 1, Z: 1})
	hex := m.BuildFromVerts(Hex, hv, gmi.NoRef)
	// Prism on face (3,2,6,7) == y=1 side: bottom tri (3,2,6), top ...
	// instead, attach a pyramid to the y=1 quad (3,2,6,7) with apex
	// out at y=2.
	apex := m.CreateVertex(gmi.NoRef, vec.V{X: 0.5, Y: 2, Z: 0.5})
	pyr := m.BuildFromVerts(Pyramid, []Ent{hv[3], hv[2], hv[6], hv[7], apex}, gmi.NoRef)
	// Prism on the x=1 quad (1,2,6,5): split that quad... a prism needs
	// two triangular faces; attach it so its quads include (1,2,6,5):
	// bottom tri (1,2,5'), top (5,6,?) -- simpler: prism with bottom
	// tri (1, 2, p) and top tri (5, 6, q).
	p := m.CreateVertex(gmi.NoRef, vec.V{X: 2, Y: 0.5, Z: 0})
	q := m.CreateVertex(gmi.NoRef, vec.V{X: 2, Y: 0.5, Z: 1})
	prism := m.BuildFromVerts(Prism, []Ent{hv[1], hv[2], p, hv[5], hv[6], q}, gmi.NoRef)
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if m.Count(3) != 3 {
		t.Fatalf("regions = %d", m.Count(3))
	}
	// The pyramid's base quad must be the hex's face (shared, 2 ups).
	base := m.DownTo(pyr, nil)[0]
	if base.T != Quad || m.UpCount(base) != 2 {
		t.Fatalf("pyramid base %v has %d ups", base.T, m.UpCount(base))
	}
	// The prism shares quad (1,2,6,5) with the hex.
	shared := m.FindFromVerts(Quad, []Ent{hv[1], hv[2], hv[6], hv[5]})
	if !shared.Ok() || m.UpCount(shared) != 2 {
		t.Fatal("prism-hex quad not shared")
	}
	// Element neighbors through faces: the hex touches both.
	nb := m.BridgeAdjacentTo(hex, 2, 3, nil)
	if len(nb) != 2 {
		t.Fatalf("hex face neighbors = %v", nb)
	}
	_ = prism
	// Total volume: hex 1 + pyramid (base 1, apex height 1)/3 + prism
	// (bottom tri area 0.5 x height 1).
	vol := 0.0
	for el := range m.Elements() {
		vol += m.Measure(el)
	}
	want := 1 + 1.0/3 + 0.5
	if math.Abs(vol-want) > 1e-9 {
		t.Fatalf("volume = %g, want %g", vol, want)
	}
}

// TestUseListStressReuse churns create/destroy cycles to stress the
// free lists and use-list unlink paths.
func TestUseListStressReuse(t *testing.T) {
	m := newTestMesh()
	vs := mkVerts(m,
		vec.V{}, vec.V{X: 1}, vec.V{Y: 1}, vec.V{Z: 1}, vec.V{X: 1, Y: 1, Z: 1})
	for i := 0; i < 200; i++ {
		t1 := m.BuildFromVerts(Tet, []Ent{vs[0], vs[1], vs[2], vs[3]}, gmi.NoRef)
		t2 := m.BuildFromVerts(Tet, []Ent{vs[1], vs[2], vs[3], vs[4]}, gmi.NoRef)
		if i%3 == 0 {
			m.Destroy(t1)
			m.Destroy(t2)
			// Remove orphaned faces/edges but keep the vertices.
			for d := 2; d >= 1; d-- {
				var dead []Ent
				for e := range m.Iter(d) {
					if !m.HasUp(e) {
						dead = append(dead, e)
					}
				}
				for _, e := range dead {
					m.Destroy(e)
				}
			}
		} else {
			m.Destroy(t2)
			m.Destroy(t1)
			for d := 2; d >= 1; d-- {
				var dead []Ent
				for e := range m.Iter(d) {
					if !m.HasUp(e) {
						dead = append(dead, e)
					}
				}
				for _, e := range dead {
					m.Destroy(e)
				}
			}
		}
		if i%50 == 0 {
			if err := m.CheckConsistency(); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
	}
	if m.Count(3) != 0 || m.Count(0) != 5 {
		t.Fatalf("counts after churn: %d regions %d verts", m.Count(3), m.Count(0))
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorsAndSets(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := New(model.Model, 3)
	if m.Model() != model.Model || m.Dim() != 3 {
		t.Fatal("Model/Dim accessors")
	}
	m.SetPart(7)
	if m.Part() != 7 {
		t.Fatal("Part accessor")
	}
	created := 0
	destroyed := 0
	m.OnCreate(func(Ent) { created++ })
	m.OnDestroy(func(Ent) { destroyed++ })
	tet, _ := singleTet(m)
	if created != 4+6+4+1 {
		t.Fatalf("created hook fired %d times", created)
	}
	m.Destroy(tet)
	if destroyed != 1 {
		t.Fatalf("destroyed hook fired %d times", destroyed)
	}
	// Sets bookkeeping.
	m.Set("a").Add(tet)
	m.Set("b")
	names := m.SetNames()
	if len(names) != 2 {
		t.Fatalf("SetNames = %v", names)
	}
	m.DeleteSet("a")
	if len(m.SetNames()) != 1 {
		t.Fatal("DeleteSet failed")
	}
	// Type helpers.
	if len(TypesOfDim(3)) != 4 || TypesOfDim(0)[0] != Vertex {
		t.Fatal("TypesOfDim")
	}
	if Tet.String() != "tet" || Type(99).String() == "" {
		t.Fatal("Type.String")
	}
	if NilEnt.String() != "M(nil)" {
		t.Fatalf("NilEnt string %q", NilEnt.String())
	}
	if (Ent{T: Tet, I: 3}).Dim() != 3 {
		t.Fatal("Ent.Dim")
	}
}

func TestMeasureAllTypesAndQuality(t *testing.T) {
	m := newTestMesh()
	v := m.CreateVertex(gmi.NoRef, vec.V{})
	if m.Measure(v) != 0 {
		t.Fatal("vertex measure")
	}
	tet, vs := singleTet(m)
	e := m.FindFromVerts(Edge, []Ent{vs[0], vs[1]})
	if m.EdgeLength(e) != m.Measure(e) {
		t.Fatal("EdgeLength alias")
	}
	f := m.DownTo(tet, nil)[0]
	if m.Measure(f) <= 0 {
		t.Fatal("tri area")
	}
	// Quad measure.
	m2 := newTestMesh()
	qv := mkVerts(m2, vec.V{}, vec.V{X: 2}, vec.V{X: 2, Y: 1}, vec.V{Y: 1})
	q := m2.BuildFromVerts(Quad, qv, gmi.NoRef)
	if a := m2.Measure(q); math.Abs(a-2) > 1e-12 {
		t.Fatalf("quad area = %g", a)
	}
	if m2.MeanRatioQuality(q) != 1 {
		t.Fatal("non-simplex quality should be 1")
	}
	// Equilateral triangle has quality ~1; a sliver ~0.
	m3 := New(nil, 2)
	a := m3.CreateVertex(gmi.NoRef, vec.V{})
	b := m3.CreateVertex(gmi.NoRef, vec.V{X: 1})
	c := m3.CreateVertex(gmi.NoRef, vec.V{X: 0.5, Y: math.Sqrt(3) / 2})
	tri := m3.BuildFromVerts(Tri, []Ent{a, b, c}, gmi.NoRef)
	if q := m3.MeanRatioQuality(tri); math.Abs(q-1) > 1e-9 {
		t.Fatalf("equilateral quality = %g", q)
	}
	d := m3.CreateVertex(gmi.NoRef, vec.V{X: 0.5, Y: 1e-6})
	sliver := m3.BuildFromVerts(Tri, []Ent{a, b, d}, gmi.NoRef)
	if q := m3.MeanRatioQuality(sliver); q > 0.01 {
		t.Fatalf("sliver quality = %g", q)
	}
	// Regular tet quality ~1.
	m4 := newTestMesh()
	rt := mkVerts(m4,
		vec.V{X: 1, Y: 1, Z: 1}, vec.V{X: 1, Y: -1, Z: -1},
		vec.V{X: -1, Y: 1, Z: -1}, vec.V{X: -1, Y: -1, Z: 1})
	reg := m4.BuildFromVerts(Tet, rt, gmi.NoRef)
	if q := m4.MeanRatioQuality(reg); math.Abs(q-1) > 1e-9 {
		t.Fatalf("regular tet quality = %g", q)
	}
	// Coord panics on non-vertices.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Coord of edge did not panic")
			}
		}()
		m.Coord(e)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetCoord of edge did not panic")
			}
		}()
		m.SetCoord(e, vec.V{})
	}()
}
