package parma

import (
	"slices"
	"sort"

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
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Anchor.Less(out[j].Anchor)
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
func selectByBoundaryFaces(m *mesh.Mesh, forRegions bool) []Cavity {
	d := m.Dim()
	seen := m.NewMarks()
	var out []Cavity
	var els, sides []mesh.Ent
	for f := range m.PartBoundary(d - 1) {
		els = m.AdjacentTo(f, d, els[:0])
		for _, el := range els {
			if m.IsGhost(el) || !seen.Set(el) {
				continue
			}
			nb, ni := 0, 0
			sides = m.AdjacentTo(el, d-1, sides[:0])
			for _, ef := range sides {
				if m.IsShared(ef) {
					nb++
				} else {
					ni++
				}
			}
			if nb == 0 {
				continue
			}
			score := float64(nb)
			if forRegions {
				score = float64(nb - ni)
			}
			out = append(out, Cavity{
				Anchor: f,
				Els:    []mesh.Ent{el},
				Score:  score,
			})
		}
	}
	return out
}

// selectByCavity implements the Fig 10 edge rule and Zhou's vertex
// rule: part-boundary entities of the given dimension whose local
// element cavity is small migrate as a unit, removing the entity from
// the part.
func selectByCavity(m *mesh.Mesh, dim, limit int) []Cavity {
	d := m.Dim()
	var out []Cavity
	var els []mesh.Ent
	for b := range m.PartBoundary(dim) {
		els = m.AdjacentTo(b, d, els[:0])
		if len(els) == 0 || len(els) > limit || slices.ContainsFunc(els, m.IsGhost) {
			continue
		}
		out = append(out, Cavity{
			Anchor: b,
			Els:    slices.Clone(els),
			Score:  1 / float64(len(els)),
		})
	}
	return out
}

// closureCounts returns, per dimension 0..D-1, the number of distinct
// downward entities of the given elements — the upper bound on entities
// arriving at the destination with the cavity.
func closureCounts(m *mesh.Mesh, els []mesh.Ent) [4]int {
	var counts [4]int
	d := m.Dim()
	var buf [64]mesh.Ent
	for dd := 0; dd < d; dd++ {
		counts[dd] = len(closureOf(m, els, dd, buf[:0]))
	}
	counts[d] = len(els)
	return counts
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

// leavingCount returns how many entities of dimension dim would leave
// the part if the elements in `leaving` (a set including this cavity)
// migrate: entities all of whose local adjacent elements are leaving.
func leavingCount(m *mesh.Mesh, cav []mesh.Ent, leaving *mesh.Marks, dim int) int {
	d := m.Dim()
	if dim == d {
		return len(cav)
	}
	n := 0
	var buf, upBuf [64]mesh.Ent
	for _, e := range closureOf(m, cav, dim, buf[:0]) {
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
