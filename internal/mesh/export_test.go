package mesh

import "slices"

// DownTypesForTest and DownVertsForTest expose the canonical templates,
// and DownStackForTest the downward traversal's scratch size, to the
// external kernel tests.
var (
	DownTypesForTest = downTypes
	DownVertsForTest = downVerts
)

const DownStackForTest = downStack

// CorruptFixture damages a mesh behind the API's back, through the
// storage arrays, in a way CheckConsistency must report with a message
// containing Want.
type CorruptFixture struct {
	Name, Want string
	Corrupt    func(m *Mesh)
}

// CorruptFixtures are the corrupt-mesh cases of the consistency tests,
// here and in the distributed verifiers'. Each works on the vertices
// vs of the mesh's first tet that has none on the part boundary: the
// damage is local, out of the link checks' sight.
var CorruptFixtures = []CorruptFixture{
	{"dead downward", "is not alive", func(m *Mesh) {
		// Kill a vertex behind the adjacency structure's back.
		m.td[Vertex].alive[firstTetVerts(m)[0].I] = false
	}},
	{"missing use", "downward references", func(m *Mesh) {
		// Drop an edge's use list: its vertices now have more downward
		// references than uses.
		vs := firstTetVerts(m)
		m.td[Edge].firstUse[m.findEdge(vs[0], vs[1]).I] = nilUse
	}},
	{"dangling use", "does not point back", func(m *Mesh) {
		// Swap two vertices' use lists: each now claims uses whose
		// downward slots point at the other vertex.
		vs, td := firstTetVerts(m), &m.td[Vertex]
		td.firstUse[vs[0].I], td.firstUse[vs[1].I] = td.firstUse[vs[1].I], td.firstUse[vs[0].I]
	}},
	{"cyclic use list", "use list exceeds", func(m *Mesh) {
		// Make a use list loop back on itself: every use in it still
		// points back, so only the cut-off past the reference count ends
		// the walk.
		first := m.td[Vertex].firstUse[firstTetVerts(m)[0].I]
		m.setUseNext(first, first)
	}},
	{"use in two lists", "does not point back", func(m *Mesh) {
		// Chain one vertex's uses behind another's: they sit in two
		// lists, and in the second they name the wrong entity.
		vs, td := firstTetVerts(m), &m.td[Vertex]
		last := td.firstUse[vs[1].I]
		for next := m.useNext(last); next.ok(); next = m.useNext(last) {
			last = next
		}
		m.setUseNext(last, td.firstUse[vs[0].I])
	}},
}

func firstTetVerts(m *Mesh) []Ent {
	for tet := range m.IterType(Tet) {
		if vs := m.VertsTo(tet, nil); !slices.ContainsFunc(vs, m.IsShared) {
			return vs
		}
	}
	panic("mesh: corrupt fixtures need a tet off the part boundary")
}
