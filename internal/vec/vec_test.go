package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestArithmetic(t *testing.T) {
	a := V{1, 2, 3}
	b := V{4, 5, 6}
	if a.Add(b) != (V{5, 7, 9}) {
		t.Fatal("Add")
	}
	if b.Sub(a) != (V{3, 3, 3}) {
		t.Fatal("Sub")
	}
	if a.Scale(2) != (V{2, 4, 6}) {
		t.Fatal("Scale")
	}
	if !close(a.Dot(b), 32) {
		t.Fatal("Dot")
	}
	if a.Cross(b) != (V{-3, 6, -3}) {
		t.Fatal("Cross")
	}
	if !close(V{3, 4, 0}.Norm(), 5) {
		t.Fatal("Norm")
	}
	if !close(V{3, 4, 0}.Dist(V{0, 0, 0}), 5) {
		t.Fatal("Dist")
	}
	if u := (V{0, 0, 2}).Unit(); u != (V{0, 0, 1}) {
		t.Fatal("Unit")
	}
	if z := (V{}).Unit(); z != (V{}) {
		t.Fatal("Unit of zero changed value")
	}
}

func TestCompAccess(t *testing.T) {
	v := V{1, 2, 3}
	for i, want := range []float64{1, 2, 3} {
		if v.Comp(i) != want {
			t.Fatalf("Comp(%d)", i)
		}
	}
	if v.WithComp(1, 9) != (V{1, 9, 3}) {
		t.Fatal("WithComp")
	}
	if v != (V{1, 2, 3}) {
		t.Fatal("WithComp mutated receiver")
	}
}

func TestLerpMidCentroid(t *testing.T) {
	a, b := V{0, 0, 0}, V{2, 4, 6}
	if Lerp(a, b, 0.25) != (V{0.5, 1, 1.5}) {
		t.Fatal("Lerp")
	}
	if Mid(a, b) != (V{1, 2, 3}) {
		t.Fatal("Mid")
	}
	if Centroid(a, b, V{4, 2, 0}) != (V{2, 2, 2}) {
		t.Fatal("Centroid")
	}
}

func TestTetVolumeOrientation(t *testing.T) {
	a, b, c := V{0, 0, 0}, V{1, 0, 0}, V{0, 1, 0}
	dUp := V{0, 0, 1}
	if v := TetVolume(a, b, c, dUp); !close(v, 1.0/6) {
		t.Fatalf("vol = %g", v)
	}
	if v := TetVolume(a, c, b, dUp); !close(v, -1.0/6) {
		t.Fatalf("flipped vol = %g", v)
	}
}

func TestTriAreaNormal(t *testing.T) {
	a, b, c := V{0, 0, 0}, V{2, 0, 0}, V{0, 2, 0}
	if !close(TriArea(a, b, c), 2) {
		t.Fatal("TriArea")
	}
}

func TestClosestOnSegment(t *testing.T) {
	a, b := V{0, 0, 0}, V{10, 0, 0}
	q, s := ClosestOnSegment(V{3, 5, 0}, a, b)
	if q != (V{3, 0, 0}) || !close(s, 0.3) {
		t.Fatalf("q=%v s=%g", q, s)
	}
	q, s = ClosestOnSegment(V{-5, 1, 0}, a, b)
	if q != a || s != 0 {
		t.Fatal("clamp low")
	}
	q, s = ClosestOnSegment(V{99, 1, 0}, a, b)
	if q != b || s != 1 {
		t.Fatal("clamp high")
	}
	// Degenerate segment.
	q, s = ClosestOnSegment(V{1, 1, 1}, a, a)
	if q != a || s != 0 {
		t.Fatal("degenerate")
	}
}

// Property: the cross product is orthogonal to both inputs.
func TestCrossOrthogonalProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V{clampf(ax), clampf(ay), clampf(az)}
		b := V{clampf(bx), clampf(by), clampf(bz)}
		c := a.Cross(b)
		scale := a.Norm()*b.Norm() + 1
		return math.Abs(c.Dot(a))/scale < 1e-9 && math.Abs(c.Dot(b))/scale < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clampf(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	return math.Mod(v, 1e6)
}
