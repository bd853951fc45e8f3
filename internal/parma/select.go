package parma

import (
	"cmp"
	"slices"

	"github.com/fastmath/pumi-go/internal/mesh"
)

// Cavity is a candidate group of elements to migrate together, anchored
// at the part-boundary entity whose balance it improves. Score orders
// candidates: higher scores promise more reduction of the balanced
// entity type per element moved and less part-boundary growth.
type Cavity struct {
	Anchor mesh.Ent
	Els    []mesh.Ent
	Score  float64
}

// vtxCavityLimit caps the cavity size for vertex-driven selection
// (Zhou's strategy migrates small cavities around boundary vertices).
const vtxCavityLimit = 4

// edgeCavityLimit caps the cavity size for edge-driven selection: an
// edge bounding two faces on the part has one adjacent region (Fig 10a)
// and is the preferred case. The paper's Fig 10b analysis shows larger
// cavities grow the part boundary faster than they reduce edges, and
// measurements here agree, so the two-face case is the cutoff.
const edgeCavityLimit = 2

// SelectCavities proposes migration cavities on one part for improving
// the balance of entities of dimension dim, following the paper's
// selection rules:
//
//   - regions (dim == D): elements with more faces classified on the
//     part boundary than on the part interior (Fig 9);
//   - faces (dim == D-1 in 3D): elements ranked by their number of
//     part-boundary faces (each such face leaves the part with the
//     element);
//   - edges (Fig 10): part-boundary edges bounding few local elements;
//     the whole local cavity of the edge migrates so the edge leaves
//     the part;
//   - vertices (Zhou's strategy): part-boundary vertices with small
//     local element cavities.
//
// Cavities are returned in decreasing score order, deterministically.
// The cavities' element lists share one array, sized exactly: a call
// allocates a fixed number of times, however many cavities it returns.
func SelectCavities(m *mesh.Mesh, dim int) []Cavity {
	d := m.Dim()
	var out []Cavity
	switch {
	case dim == d || dim == d-1:
		out = selectByBoundaryFaces(m, dim == d)
	case dim == 0:
		out = selectByCavity(m, 0, vtxCavityLimit)
	default:
		out = selectByCavity(m, dim, edgeCavityLimit)
	}
	slices.SortStableFunc(out, func(a, b Cavity) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return a.Anchor.Compare(b.Anchor)
	})
	return out
}

// selectByBoundaryFaces implements the Fig 9 preference: elements are
// ranked by how many of their faces are classified on the part boundary
// versus the part interior. Elements with more boundary than interior
// faces (the figure's examples) rank first — migrating them shrinks the
// boundary — but boundary-layer elements with a single shared face
// remain eligible so diffusion keeps making progress on flat
// interfaces. For region balance the score is nb-ni; for face balance
// it is nb, the number of faces the move removes from the part.
//
// Each element is a cavity once, anchored at its first part-boundary
// face. A first walk of the boundary claims and counts the elements,
// so the second fills arrays of the exact size.
func selectByBoundaryFaces(m *mesh.Mesh, forRegions bool) []Cavity {
	d := m.Dim()
	claimed := m.NewMarks()
	n := 0
	var elsBuf, sidesBuf [16]mesh.Ent
	els, sides := elsBuf[:0], sidesBuf[:0]
	for f := range m.PartBoundary(d - 1) {
		els = m.AdjacentTo(f, d, els[:0])
		for _, el := range els {
			if !m.IsGhost(el) && claimed.Set(el) {
				n++
			}
		}
	}
	out := make([]Cavity, 0, n)
	cands := make([]mesh.Ent, 0, n)
	for f := range m.PartBoundary(d - 1) {
		els = m.AdjacentTo(f, d, els[:0])
		for _, el := range els {
			if !claimed.Has(el) {
				continue
			}
			claimed.Clear(el)
			sides = m.AdjacentTo(el, d-1, sides[:0])
			nb := 0
			for _, ef := range sides {
				if m.IsShared(ef) {
					nb++
				}
			}
			if nb == 0 {
				continue
			}
			score := float64(nb)
			if forRegions {
				score = float64(nb - (len(sides) - nb))
			}
			k := len(cands)
			cands = append(cands, el)
			out = append(out, Cavity{Anchor: f, Els: cands[k : k+1 : k+1], Score: score})
		}
	}
	return out
}

// selectByCavity implements the Fig 10 edge rule and Zhou's vertex
// rule: part-boundary entities of the given dimension whose local
// element cavity is small migrate as a unit, removing the entity from
// the part. The accepted cavities' elements are found again into one
// array once their total is known.
func selectByCavity(m *mesh.Mesh, dim, limit int) []Cavity {
	d := m.Dim()
	var out []Cavity
	var elsBuf [16]mesh.Ent
	els := elsBuf[:0]
	n := 0
	for b := range m.PartBoundary(dim) {
		els = m.AdjacentTo(b, d, els[:0])
		if len(els) == 0 || len(els) > limit || slices.ContainsFunc(els, m.IsGhost) {
			continue
		}
		n += len(els)
		out = append(out, Cavity{Anchor: b, Score: 1 / float64(len(els))})
	}
	all := make([]mesh.Ent, 0, n)
	for i := range out {
		lo := len(all)
		all = m.AdjacentTo(out[i].Anchor, d, all)
		out[i].Els = all[lo:len(all):len(all)]
	}
	return out
}

// cavityLoads returns the load the cavity carries to its destination in
// the rows buildPlans reads, t and the guarded dimensions: below D
// the number of distinct downward entities of the elements (the upper
// bound on entities arriving with them), and in the element row, always
// filled, the element count or, with a weight, the elements' total
// weight. It also returns the cavity's closure of dimension t appended
// to buf, nil if t is D.
func cavityLoads(m *mesh.Mesh, els []mesh.Ent, weight WeightFunc, t int, guarded []int, buf []mesh.Ent) (loads [4]float64, closure []mesh.Ent) {
	d := m.Dim()
	var scratch [64]mesh.Ent
	for dd := 0; dd < d; dd++ {
		switch {
		case dd == t:
			closure = closureOf(m, els, dd, buf)
			loads[dd] = float64(len(closure))
		case slices.Contains(guarded, dd):
			loads[dd] = float64(len(closureOf(m, els, dd, scratch[:0])))
		}
	}
	if weight == nil {
		loads[d] = float64(len(els))
		return loads, closure
	}
	for _, el := range els {
		loads[d] += weight(m, el)
	}
	return loads, closure
}

// closureOf appends the distinct entities of dimension dim in the
// downward closures of els to buf, ascending. Cavities are a handful of
// elements, so sorting the concatenated adjacencies beats any set.
func closureOf(m *mesh.Mesh, els []mesh.Ent, dim int, buf []mesh.Ent) []mesh.Ent {
	for _, el := range els {
		buf = m.AdjacentTo(el, dim, buf)
	}
	mesh.SortEnts(buf, nil) // a cavity's closure sorts in stack scratch
	return slices.Compact(buf)
}

// leavingCount returns how many of a cavity's closure entities, of one
// dimension below D, would leave the part if the elements in `leaving`
// (a set including the cavity) migrate: entities all of whose local
// adjacent elements are leaving.
func leavingCount(m *mesh.Mesh, closure []mesh.Ent, leaving *mesh.Marks) int {
	d := m.Dim()
	n := 0
	var upBuf [64]mesh.Ent
	for _, e := range closure {
		all := true
		for _, up := range m.AdjacentTo(e, d, upBuf[:0]) {
			if !leaving.Has(up) {
				all = false
				break
			}
		}
		if all {
			n++
		}
	}
	return n
}
