package meshgen

import (
	"testing"
	"testing/quick"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
)

func TestRect2DCountsAndEuler(t *testing.T) {
	model := gmi.Rect(2, 1)
	m := Rect2D(model, 4, 3)
	wantV := 5 * 4
	wantF := 2 * 4 * 3
	if m.Count(0) != wantV || m.Count(2) != wantF {
		t.Fatalf("V=%d F=%d", m.Count(0), m.Count(2))
	}
	// Euler characteristic of a disk: V - E + F = 1.
	if chi := m.Count(0) - m.Count(1) + m.Count(2); chi != 1 {
		t.Fatalf("chi = %d", chi)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRect2DClassification(t *testing.T) {
	m := Rect2D(gmi.Rect(1, 1), 3, 3)
	counts := map[int8]int{}
	for d := 0; d <= 2; d++ {
		for e := range m.Iter(d) {
			c := m.Classification(e)
			if !c.Valid() {
				t.Fatalf("%v unclassified", e)
			}
			if d == 0 {
				counts[c.Dim]++
			}
			if int(c.Dim) < d {
				t.Fatalf("%v classified on lower-dim %v", e, c)
			}
		}
	}
	// 4 corner vertices on model vertices, 2*(2+2)=8 on edges, 4 interior.
	if counts[0] != 4 || counts[1] != 8 || counts[2] != 4 {
		t.Fatalf("vertex classification counts = %v", counts)
	}
	// Boundary mesh edges: 12 on model edges.
	nb := 0
	for e := range m.Iter(1) {
		if m.Classification(e).Dim == 1 {
			nb++
		}
	}
	if nb != 12 {
		t.Fatalf("boundary edges = %d", nb)
	}
}

func TestBox3DCountsAndEuler(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := Box3D(model, 3, 2, 2)
	wantV := 4 * 3 * 3
	wantT := 6 * 3 * 2 * 2
	if m.Count(0) != wantV || m.Count(3) != wantT {
		t.Fatalf("V=%d T=%d", m.Count(0), m.Count(3))
	}
	// Euler characteristic of a ball: V - E + F - T = 1.
	if chi := m.Count(0) - m.Count(1) + m.Count(2) - m.Count(3); chi != 1 {
		t.Fatalf("chi = %d", chi)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Interior faces bound 2 regions, boundary faces 1.
	for f := range m.IterType(mesh.Tri) {
		n := m.UpCount(f)
		c := m.Classification(f)
		switch n {
		case 1:
			if c.Dim != 2 {
				t.Fatalf("boundary face classified %v", c)
			}
		case 2:
			if c.Dim != 3 {
				t.Fatalf("interior face classified %v", c)
			}
		default:
			t.Fatalf("face with %d regions", n)
		}
	}
	// Boundary face count: 4 tris per grid quad over all 6 sides... two
	// tris per quad: sides x: 2*(2*2), y: 2*(3*2), z: 2*(3*2) quads.
	wantB := 2 * (2*(2*2) + 2*(3*2) + 2*(3*2))
	nb := 0
	for f := range m.IterType(mesh.Tri) {
		if m.UpCount(f) == 1 {
			nb++
		}
	}
	if nb != wantB {
		t.Fatalf("boundary faces = %d, want %d", nb, wantB)
	}
}

// TestKuhnCounts checks the closed-form counts the 3D generators
// reserve storage by against what they build.
func TestKuhnCounts(t *testing.T) {
	box := Box3D(gmi.Box(1, 1, 1), 3, 2, 4)
	vessel := Vessel3D(gmi.Vessel(10, 1, 0.5, 0.2), 5, 3)
	for _, c := range []struct {
		name       string
		m          *mesh.Mesh
		nx, ny, nz int
	}{{"box", box, 3, 2, 4}, {"vessel", vessel, 3, 3, 5}} {
		v, e, f, r := reserveKuhn(mesh.New(nil, 3), c.nx, c.ny, c.nz)
		if c.m.Count(0) != v || c.m.Count(1) != e || c.m.Count(2) != f || c.m.Count(3) != r {
			t.Errorf("%s: built %d/%d/%d/%d vertices/edges/triangles/tets, counted %d/%d/%d/%d",
				c.name, c.m.Count(0), c.m.Count(1), c.m.Count(2), c.m.Count(3), v, e, f, r)
		}
	}
}

func TestBox3DCornersAndEdges(t *testing.T) {
	m := Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	nCorner, nModelEdge := 0, 0
	for v := range m.Iter(0) {
		switch m.Classification(v).Dim {
		case 0:
			nCorner++
		case 1:
			nModelEdge++
		}
	}
	if nCorner != 8 {
		t.Fatalf("corner vertices = %d", nCorner)
	}
	// 12 model edges with 1 interior grid vertex each.
	if nModelEdge != 12 {
		t.Fatalf("model-edge vertices = %d", nModelEdge)
	}
}

func TestBox3DVolume(t *testing.T) {
	m := Box3D(gmi.Box(2, 1, 1), 2, 2, 2)
	vol := 0.0
	for e := range m.Elements() {
		vol += m.Measure(e)
	}
	if vol < 2-1e-9 || vol > 2+1e-9 {
		t.Fatalf("total volume = %g", vol)
	}
}

func TestVessel3D(t *testing.T) {
	model := gmi.Vessel(10, 1, 0.5, 1)
	m := Vessel3D(model, 8, 4)
	if m.Count(3) != 6*8*4*4 {
		t.Fatalf("tets = %d", m.Count(3))
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if chi := m.Count(0) - m.Count(1) + m.Count(2) - m.Count(3); chi != 1 {
		t.Fatalf("chi = %d", chi)
	}
	// Cap faces: 2 tris per cross-section cell.
	nCap0, nCap1, nWall := 0, 0, 0
	for f := range m.IterType(mesh.Tri) {
		if m.UpCount(f) != 1 {
			continue
		}
		switch m.Classification(f) {
		case gmi.Ref{Dim: 2, Tag: 2}:
			nCap0++
		case gmi.Ref{Dim: 2, Tag: 3}:
			nCap1++
		case gmi.Ref{Dim: 2, Tag: 1}:
			nWall++
		default:
			t.Fatalf("boundary face classified %v", m.Classification(f))
		}
	}
	if nCap0 != 2*4*4 || nCap1 != 2*4*4 {
		t.Fatalf("cap faces = %d, %d", nCap0, nCap1)
	}
	if nWall == 0 {
		t.Fatal("no wall faces")
	}
	// Rim edges exist: classified on model edges 1 and 2.
	rims := map[int32]int{}
	for e := range m.Iter(1) {
		c := m.Classification(e)
		if c.Dim == 1 {
			rims[c.Tag]++
		}
	}
	if rims[1] == 0 || rims[2] == 0 {
		t.Fatalf("rim edges = %v", rims)
	}
	// Wall vertices lie near the wall radius.
	for v := range m.Iter(0) {
		if m.Classification(v) == (gmi.Ref{Dim: 2, Tag: 1}) {
			p := m.Coord(v)
			q := model.Snap(gmi.Ref{Dim: 2, Tag: 1}, p)
			if p.Dist(q) > 0.15*model.R0 {
				t.Fatalf("wall vertex %v far from wall: %g", p, p.Dist(q))
			}
		}
	}
}

// Property: the Euler characteristic of any structured box mesh is 1
// and all entities are classified.
func TestBoxEulerProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		nx, ny, nz := int(a%3)+1, int(b%3)+1, int(c%3)+1
		m := Box3D(gmi.Box(1, 2, 3), nx, ny, nz)
		if m.Count(0)-m.Count(1)+m.Count(2)-m.Count(3) != 1 {
			return false
		}
		for d := 0; d <= 3; d++ {
			for e := range m.Iter(d) {
				if !m.Classification(e).Valid() {
					return false
				}
			}
		}
		return m.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
