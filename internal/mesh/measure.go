package mesh

import (
	"math"

	"github.com/fastmath/pumi-go/internal/vec"
)

// Centroid returns the average position of e's vertices (summed in
// ascending handle order).
func (m *Mesh) Centroid(e Ent) vec.V {
	if e.T == Vertex {
		return m.Coord(e)
	}
	var b [8]Ent
	vs := m.AdjacentTo(e, 0, b[:0])
	var s vec.V
	for _, v := range vs {
		s = s.Add(m.Coord(v))
	}
	return s.Scale(1 / float64(len(vs)))
}

// Measure returns the size of an entity: length for edges, area for
// faces, volume for regions (unsigned). Quads and non-tet regions are
// measured by simplex decomposition about their centroid, exact for
// the planar/convex cells the structured generators emit.
func (m *Mesh) Measure(e Ent) float64 {
	var b [8]Ent
	var s [6]Ent
	switch e.T {
	case Vertex:
		return 0
	case Edge:
		d := m.down(e, &s)
		return m.Coord(d[0]).Dist(m.Coord(d[1]))
	case Tri:
		v := m.VertsTo(e, b[:0])
		return vec.TriArea(m.Coord(v[0]), m.Coord(v[1]), m.Coord(v[2]))
	case Quad:
		v := m.VertsTo(e, b[:0])
		c := m.Centroid(e)
		a := 0.0
		for i := 0; i < 4; i++ {
			a += vec.TriArea(m.Coord(v[i]), m.Coord(v[(i+1)%4]), c)
		}
		return a
	case Tet:
		v := m.VertsTo(e, b[:0])
		return math.Abs(vec.TetVolume(m.Coord(v[0]), m.Coord(v[1]), m.Coord(v[2]), m.Coord(v[3])))
	default:
		// Decompose about the cell centroid: one tet per face triangle.
		c := m.Centroid(e)
		vol := 0.0
		for _, f := range m.down(e, &s) {
			fv := m.VertsTo(f, b[:0])
			fc := m.Centroid(f)
			n := len(fv)
			for i := 0; i < n; i++ {
				vol += math.Abs(vec.TetVolume(m.Coord(fv[i]), m.Coord(fv[(i+1)%n]), fc, c))
			}
		}
		return vol
	}
}

// EdgeLength returns the length of the edge between two vertices.
func (m *Mesh) EdgeLength(e Ent) float64 { return m.Measure(e) }

// MeanRatioQuality returns a scale-invariant shape quality in (0, 1]
// for triangles and tetrahedra (1 = equilateral/regular, -> 0 for
// degenerate). Other types return 1.
func (m *Mesh) MeanRatioQuality(e Ent) float64 {
	var buf [4]Ent
	switch e.T {
	case Tri:
		v := m.VertsTo(e, buf[:0])
		a, b, c := m.Coord(v[0]), m.Coord(v[1]), m.Coord(v[2])
		area := vec.TriArea(a, b, c)
		l2 := a.Sub(b).Norm2() + b.Sub(c).Norm2() + c.Sub(a).Norm2()
		if l2 == 0 {
			return 0
		}
		// Equilateral: area = sqrt(3)/4 s^2, l2 = 3 s^2.
		return 4 * math.Sqrt(3) * area / l2
	case Tet:
		v := m.VertsTo(e, buf[:0])
		p := [4]vec.V{m.Coord(v[0]), m.Coord(v[1]), m.Coord(v[2]), m.Coord(v[3])}
		vol := math.Abs(vec.TetVolume(p[0], p[1], p[2], p[3]))
		l2 := 0.0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				l2 += p[i].Sub(p[j]).Norm2()
			}
		}
		if l2 == 0 {
			return 0
		}
		// Regular tet with edge s: vol = s^3/(6 sqrt 2), sum l2 = 6 s^2.
		s2 := l2 / 6
		ideal := math.Pow(s2, 1.5) / (6 * math.Sqrt2)
		return vol / ideal
	}
	return 1
}
