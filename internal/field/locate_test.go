package field

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/vec"
)

func TestLocateInterior(t *testing.T) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 4, 4, 4)
	cases := []vec.V{
		{X: 0.5, Y: 0.5, Z: 0.5},
		{X: 0.01, Y: 0.01, Z: 0.01},
		{X: 0.99, Y: 0.5, Z: 0.13},
		{X: 0.25, Y: 0.75, Z: 0.5},
	}
	hint := mesh.NilEnt
	for _, p := range cases {
		el, bary, ok := Locate(m, p, hint)
		if !ok {
			t.Fatalf("point %v not located", p)
		}
		hint = el
		// The barycentric reconstruction must reproduce the point.
		vs := m.VertsTo(el, nil)
		var q vec.V
		for i, v := range vs {
			q = q.Add(m.Coord(v).Scale(bary[i]))
		}
		if q.Dist(p) > 1e-10 {
			t.Fatalf("reconstructed %v, want %v", q, p)
		}
	}
}

func TestLocateOutside(t *testing.T) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	el, _, ok := Locate(m, vec.V{X: 5, Y: 5, Z: 5}, mesh.NilEnt)
	if ok {
		t.Fatal("outside point reported inside")
	}
	if !el.Ok() {
		t.Fatal("no nearest element returned")
	}
}

func TestLocate2D(t *testing.T) {
	m := meshgen.Rect2D(gmi.Rect(2, 1), 6, 3)
	el, _, ok := Locate(m, vec.V{X: 1.3, Y: 0.4}, mesh.NilEnt)
	if !ok || !el.Ok() {
		t.Fatal("2D locate failed")
	}
}

// Property: every random interior point is located, and the containing
// element's barycentric coordinates are a convex combination.
func TestLocateProperty(t *testing.T) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 3, 3, 3)
	f := func(a, b, c uint16) bool {
		p := vec.V{
			X: float64(a) / 65536,
			Y: float64(b) / 65536,
			Z: float64(c) / 65536,
		}
		_, bary, ok := Locate(m, p, mesh.NilEnt)
		if !ok {
			return false
		}
		sum := 0.0
		for _, w := range bary {
			if w < locateTol {
				return false
			}
			sum += w
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMeshToMeshTransfer(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	src := meshgen.Box3D(model, 5, 5, 5)
	dst := meshgen.Box3D(model, 3, 4, 7) // non-nested grid
	fn := func(p vec.V) []float64 { return []float64{1 + 2*p.X - p.Y + 3*p.Z} }
	fs, _ := New(src, "u", 1, Linear)
	fs.SetByFunc(fn)
	if _, err := New(dst, "u", 1, Linear); err != nil {
		t.Fatal(err)
	}
	outside := Transfer(src, dst, "u")
	if outside != 0 {
		t.Fatalf("%d nodes fell outside an identical domain", outside)
	}
	// Linear functions transfer exactly between meshes of the same
	// domain.
	fd := Find(dst, "u", Linear)
	for v := range dst.Iter(0) {
		got, ok := fd.Get(v)
		if !ok {
			t.Fatalf("node %v not transferred", v)
		}
		want := fn(dst.Coord(v))
		if math.Abs(got[0]-want[0]) > 1e-9 {
			t.Fatalf("node %v: %g want %g", v, got[0], want[0])
		}
	}
	// Missing fields report failure.
	if Transfer(src, dst, "nope") != -1 {
		t.Fatal("missing field not reported")
	}
}

func TestTransferAcrossAdaptedMesh(t *testing.T) {
	// Transfer from a coarse mesh onto a finer version of the same
	// domain, a mesh-to-mesh transfer use case after remeshing.
	model := gmi.Box(2, 1, 1)
	src := meshgen.Box3D(model, 4, 2, 2)
	dst := meshgen.Box3D(model, 9, 5, 5)
	fn := func(p vec.V) []float64 { return []float64{p.X * 2} }
	fs, _ := New(src, "phi", 1, Linear)
	fs.SetByFunc(fn)
	New(dst, "phi", 1, Linear)
	if out := Transfer(src, dst, "phi"); out != 0 {
		t.Fatalf("outside nodes: %d", out)
	}
	fd := Find(dst, "phi", Linear)
	worst := 0.0
	for v := range dst.Iter(0) {
		got := fd.MustGet(v)
		want := fn(dst.Coord(v))
		if d := math.Abs(got[0] - want[0]); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Fatalf("worst transfer error %g", worst)
	}
}
