// Package vec provides the small fixed-size linear algebra used by the
// geometric model, mesh coordinates, partitioners and adaptation: 3-vectors
// and a few closed-form helpers. Everything is a value type; no allocation.
package vec

import "math"

// V is a point or vector in R^3. 2D meshes simply keep Z = 0.
type V struct{ X, Y, Z float64 }

// Add returns a + b.
func (a V) Add(b V) V { return V{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a V) Sub(b V) V { return V{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s * a.
func (a V) Scale(s float64) V { return V{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the inner product.
func (a V) Dot(b V) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product a x b.
func (a V) Cross(b V) V {
	return V{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Norm returns the Euclidean length.
func (a V) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Norm2 returns the squared length.
func (a V) Norm2() float64 { return a.Dot(a) }

// Dist returns |a - b|.
func (a V) Dist(b V) float64 { return a.Sub(b).Norm() }

// Unit returns a / |a|; the zero vector is returned unchanged.
func (a V) Unit() V {
	n := a.Norm()
	if n == 0 {
		return a
	}
	return a.Scale(1 / n)
}

// Lerp returns a + t*(b-a).
func Lerp(a, b V, t float64) V { return a.Add(b.Sub(a).Scale(t)) }

// Mid returns the midpoint of a and b.
func Mid(a, b V) V { return Lerp(a, b, 0.5) }

// Comp returns the i-th component (0=X, 1=Y, 2=Z).
func (a V) Comp(i int) float64 {
	switch i {
	case 0:
		return a.X
	case 1:
		return a.Y
	default:
		return a.Z
	}
}

// WithComp returns a copy with the i-th component set to v.
func (a V) WithComp(i int, v float64) V {
	switch i {
	case 0:
		a.X = v
	case 1:
		a.Y = v
	default:
		a.Z = v
	}
	return a
}

// TetVolume returns the signed volume of the tetrahedron (a,b,c,d):
// positive when d lies on the side of the plane (a,b,c) that the
// right-hand normal points to.
func TetVolume(a, b, c, d V) float64 {
	return b.Sub(a).Cross(c.Sub(a)).Dot(d.Sub(a)) / 6
}

// TriArea returns the (unsigned) area of triangle (a,b,c).
func TriArea(a, b, c V) float64 {
	return b.Sub(a).Cross(c.Sub(a)).Norm() / 2
}

// Centroid returns the average of the given points.
func Centroid(pts ...V) V {
	var s V
	for _, p := range pts {
		s = s.Add(p)
	}
	return s.Scale(1 / float64(len(pts)))
}

// ClosestOnSegment returns the closest point to p on segment [a, b] and
// the parameter t in [0,1] such that the point equals Lerp(a,b,t).
func ClosestOnSegment(p, a, b V) (V, float64) {
	ab := b.Sub(a)
	den := ab.Norm2()
	if den == 0 {
		return a, 0
	}
	t := p.Sub(a).Dot(ab) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return Lerp(a, b, t), t
}
