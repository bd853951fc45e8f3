package mesh

import (
	"fmt"
	"slices"

	"github.com/fastmath/pumi-go/internal/gmi"
)

// The query layer is one traversal, AdjacentTo, plus the table-driven
// VertsTo, FindFromVerts and BuildFromVerts. Every "To" form appends its
// result to a caller-owned buffer and returns it; the returned slice
// aliases only that buffer, never mesh storage. The names without "To"
// are one-line allocating wrappers for cold callers.
//
// AdjacentTo walks one level at a time in stack scratch sized by
// direction: a downward level is bounded by the templates (downStack),
// an upward level by local valence (adjStack, spilling to the heap past
// it) and travels as packed handles. Look-up by vertices starts from the
// edge joining two of them, and building from vertices goes bottom-up,
// edges then faces then the region, so each level is found among the
// users of one bounding entity.

// adjStack is the number of entities an upward traversal level may hold
// in stack scratch. Adjacency sets are bounded by local valence (a vertex
// of a tet mesh sees a few dozen entities per dimension), so levels
// normally fit; a larger level spills to the heap through append and
// the result is the same.
const adjStack = 128

// downStack is the most entities a downward traversal level can hold:
// the twelve edges of a hex.
const downStack = 12

// down fills buf with e's one-level downward adjacencies — the stored
// indices under the types of e's canonical template — and returns the
// filled prefix.
func (m *Mesh) down(e Ent, buf *[6]Ent) []Ent {
	td := &m.td[e.T]
	base := int(e.I) * td.degree
	for j, t := range downTypes[e.T] {
		buf[j] = Ent{T: t, I: td.down[base+j]}
	}
	return buf[:td.degree]
}

// DownTo appends e's one-level downward adjacencies to buf and returns
// it.
func (m *Mesh) DownTo(e Ent, buf []Ent) []Ent {
	var s [6]Ent
	return append(buf, m.down(e, &s)...)
}

// UpTo appends e's one-level upward adjacencies to buf and returns it.
// An entity may appear once per use (e.g. both end vertices of a
// collapsed edge); uses of the same entity are deduplicated.
func (m *Mesh) UpTo(e Ent, buf []Ent) []Ent {
	start := len(buf)
	for u := m.td[e.T].firstUse[e.I]; u.ok(); u = m.useNext(u) {
		if ue := u.ent(); !slices.Contains(buf[start:], ue) {
			buf = append(buf, ue)
		}
	}
	return buf
}

// UpCount returns the number of distinct one-level upward adjacencies.
// A user is counted at its first use: the list is walked against itself,
// which is two steps for a face and bounded by valence elsewhere.
func (m *Mesh) UpCount(e Ent) int {
	first, n := m.td[e.T].firstUse[e.I], 0
	for u := first; u.ok(); u = m.useNext(u) {
		n++
		for p := first; p != u; p = m.useNext(p) {
			if p.ent() == u.ent() {
				n--
				break
			}
		}
	}
	return n
}

// HasUp reports whether e bounds any higher-dimension entity.
func (m *Mesh) HasUp(e Ent) bool { return m.td[e.T].firstUse[e.I].ok() }

// AdjacentTo appends the entities of dimension dim adjacent to e to buf
// and returns it, traversing one level at a time through the complete
// representation. The appended entities are distinct and ascending in
// Ent.Less order. Same-dimension queries append nothing (use
// BridgeAdjacentTo for second-order adjacency). Intermediate levels
// live in stack scratch, so the call allocates only if buf must grow or
// an upward level exceeds adjStack entities.
func (m *Mesh) AdjacentTo(e Ent, dim int, buf []Ent) []Ent {
	switch d := e.Dim(); {
	case dim < d:
		return m.adjacentDown(e, dim, buf)
	case dim > d:
		return m.adjacentUp(e, dim, buf)
	}
	return buf
}

// adjacentDown is AdjacentTo toward a lower dimension. When vertices are
// the target, a region expands only its faces 0 and 1 and a face only its
// edges 0 and 1 (0 and 2 of a quad): between them they touch every vertex
// (see closureMask).
func (m *Mesh) adjacentDown(e Ent, dim int, buf []Ent) []Ent {
	var s0, s1 [downStack]Ent
	cur, next := append(s0[:0], e), s1[:0]
	for d := e.Dim(); d > dim; d-- {
		next = next[:0]
		for _, c := range cur {
			td := &m.td[c.T]
			base, n, stride := int(c.I)*td.degree, td.degree, 1
			if dim == 0 && d > 1 {
				n = 2
				if c.T == Quad {
					n, stride = 3, 2
				}
			}
			for j := 0; j < n; j += stride {
				if x := (Ent{T: downTypes[c.T][j], I: td.down[base+j]}); !slices.Contains(next, x) {
					next = append(next, x)
				}
			}
		}
		cur, next = next, cur
	}
	for i := 1; i < len(cur); i++ {
		for j := i; j > 0 && cur[j].Less(cur[j-1]); j-- {
			cur[j], cur[j-1] = cur[j-1], cur[j]
		}
	}
	return append(buf, cur...)
}

// adjacentUp is AdjacentTo toward a higher dimension. Levels hold packed
// handles: a dedup probe is one word compare, and word order is Ent.Less
// order.
func (m *Mesh) adjacentUp(e Ent, dim int, buf []Ent) []Ent {
	var s0, s1 [adjStack]uint32
	cur, next := append(s0[:0], e.Pack()), s1[:0]
	for d := e.Dim(); d < dim; d++ {
		next = next[:0]
		for _, w := range cur {
			c := unpack(w)
			for u := m.td[c.T].firstUse[c.I]; u.ok(); u = m.useNext(u) {
				if p := u.ent().Pack(); !slices.Contains(next, p) {
					next = append(next, p)
				}
			}
		}
		cur, next = next, cur
	}
	slices.Sort(cur)
	buf = slices.Grow(buf, len(cur))
	for _, w := range cur {
		buf = append(buf, unpack(w))
	}
	return buf
}

// ClosureTo appends e's downward closure to buf as packed handles and
// returns it: what AdjacentTo(e, dd) yields for every dd below e's
// dimension — vertices, edges, faces, ascending as a whole — gathered in
// one downward pass through stack scratch.
func (m *Mesh) ClosureTo(e Ent, buf []uint32) []uint32 {
	var levels [3][downStack]uint32
	var n [3]int
	top := [1]uint32{e.Pack()}
	cur := top[:]
	for d := e.Dim() - 1; d >= 0; d-- {
		next := levels[d][:0]
		for _, w := range cur {
			c := unpack(w)
			td := &m.td[c.T]
			base := int(c.I) * td.degree
			for j, t := range downTypes[c.T] {
				if p := (Ent{T: t, I: td.down[base+j]}).Pack(); !slices.Contains(next, p) {
					next = append(next, p)
				}
			}
		}
		slices.Sort(next)
		cur, n[d] = next, len(next)
	}
	for d := 0; d < e.Dim(); d++ {
		buf = append(buf, levels[d][:n[d]]...)
	}
	return buf
}

// SortEnts sorts ents ascending in Ent.Less order, as packed words: word
// order is Ent.Less order, and comparing words beats calling Ent.Compare.
// Up to adjStack handles sort in stack scratch; a longer list in scratch,
// grown if too short and returned for the caller to keep, so that its
// next call allocates nothing. ents must not hold NilEnt.
func SortEnts(ents []Ent, scratch []uint32) []uint32 {
	var stack [adjStack]uint32
	words := stack[:0]
	if len(ents) > len(stack) {
		scratch = slices.Grow(scratch[:0], len(ents))
		words = scratch
	}
	for _, e := range ents {
		words = append(words, e.Pack())
	}
	slices.Sort(words)
	for i, w := range words {
		ents[i] = unpack(w)
	}
	return scratch
}

// BridgeAdjacentTo appends the second-order adjacency of e to buf and
// returns it: the entities of dimension targetDim reachable through
// shared entities of dimension bridgeDim (e.g. the elements sharing a
// face with an element), distinct, ascending in Ent.Less order, e
// itself excluded.
func (m *Mesh) BridgeAdjacentTo(e Ent, bridgeDim, targetDim int, buf []Ent) []Ent {
	start := len(buf)
	var s [adjStack]Ent
	for _, b := range m.AdjacentTo(e, bridgeDim, s[:0]) {
		buf = m.AdjacentTo(b, targetDim, buf)
	}
	SortEnts(buf[start:], nil)
	buf = buf[:start+len(slices.Compact(buf[start:]))]
	if i := slices.Index(buf[start:], e); i >= 0 {
		buf = slices.Delete(buf, start+i, start+i+1)
	}
	return buf
}

// VertsTo appends e's vertices to buf in an order consistent with the
// canonical templates in downVerts and returns it: for faces the edge
// cycle order, for regions an order with the base face first. Regions
// may come back in a rotation/reflection of their creation order; all
// derived quantities (volumes, shape functions) treat that as an
// equivalent labeling.
func (m *Mesh) VertsTo(e Ent, buf []Ent) []Ent {
	switch e.Dim() {
	case 0:
		return append(buf, e)
	case 1:
		return m.DownTo(e, buf)
	case 2:
		return m.faceVertsTo(e, buf)
	default:
		return m.regionVertsTo(e, buf)
	}
}

// faceVertsTo recovers a face's vertex cycle from its edges: vertex i
// is the vertex shared by edges i-1 and i.
func (m *Mesh) faceVertsTo(f Ent, buf []Ent) []Ent {
	var s [6]Ent
	edges := m.down(f, &s)
	prev := edges[len(edges)-1]
	for _, edge := range edges {
		buf = append(buf, m.sharedVert(prev, edge))
		prev = edge
	}
	return buf
}

func (m *Mesh) sharedVert(e1, e2 Ent) Ent {
	var s1, s2 [6]Ent
	b := m.down(e2, &s2)
	for _, v := range m.down(e1, &s1) {
		if v == b[0] || v == b[1] {
			return v
		}
	}
	panic(fmt.Sprintf("mesh: edges %v and %v share no vertex", e1, e2))
}

// regionVertsTo recovers a region's vertices: the base face's cycle
// plus the remaining vertices matched through the region's own edges.
func (m *Mesh) regionVertsTo(r Ent, buf []Ent) []Ent {
	var fs [6]Ent
	faces := m.down(r, &fs)
	start := len(buf)
	buf = m.faceVertsTo(faces[0], buf)
	var s [4]Ent
	top := m.faceVertsTo(faces[1], s[:0])
	switch r.T {
	case Tet, Pyramid:
		// One apex vertex: any vertex of the second face not in the base.
		for _, v := range top {
			if !slices.Contains(buf[start:], v) {
				return append(buf, v)
			}
		}
		panic(fmt.Sprintf("mesh: %v has no apex vertex", r))
	case Hex, Prism:
		// Top face vertices matched to base vertices through the
		// vertical edges of the side faces.
		for _, v := range buf[start:] {
			partner := m.verticalPartner(faces[2:], v, top)
			if !partner.Ok() {
				panic(fmt.Sprintf("mesh: no vertical partner for %v in %v", v, r))
			}
			buf = append(buf, partner)
		}
		return buf
	}
	panic(fmt.Sprintf("mesh: Verts unsupported for %v", r.T))
}

// verticalPartner returns the vertex of top joined to v by an edge of
// one of the given side faces, or NilEnt.
func (m *Mesh) verticalPartner(sides []Ent, v Ent, top []Ent) Ent {
	var s1, s2 [6]Ent
	for _, f := range sides {
		for _, edge := range m.down(f, &s1) {
			ends := m.down(edge, &s2)
			switch {
			case ends[0] == v && slices.Contains(top, ends[1]):
				return ends[1]
			case ends[1] == v && slices.Contains(top, ends[0]):
				return ends[0]
			}
		}
	}
	return NilEnt
}

// FindByDown returns the live entity of type t whose downward set
// equals the given entities (order-insensitive), or NilEnt.
func (m *Mesh) FindByDown(t Type, down []Ent) Ent {
	if len(down) == 0 {
		return NilEnt
	}
	d0 := down[0]
	for u := m.td[d0.T].firstUse[d0.I]; u.ok(); u = m.useNext(u) {
		if ue := u.ent(); ue.T == t && m.downSetEquals(ue, down) {
			return ue
		}
	}
	return NilEnt
}

func (m *Mesh) downSetEquals(e Ent, down []Ent) bool {
	var s [6]Ent
	have := m.down(e, &s)
	if len(have) != len(down) {
		return false
	}
	// Multiset equality: each stored entity may be matched once.
	var used [8]bool
	for _, want := range down {
		found := false
		for k, h := range have {
			if !used[k] && h == want {
				used[k] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// FindFromVerts returns the live entity of type t whose vertex set
// equals verts, or NilEnt. The comparison is a set bijection: verts may
// come in any order (callers pass sorted as well as canonical lists),
// but a list of the wrong length or with a repeated vertex names no
// entity. Every two vertices of a simplex are joined by one of its
// edges, so an edge, triangle or tet is sought above the edge joining
// verts[0] and verts[1]; the other types, where those two may be a
// diagonal, are sought above verts[0]. The walk goes only through edges
// and faces whose own vertices all lie in verts, and allocates nothing.
func (m *Mesh) FindFromVerts(t Type, verts []Ent) Ent {
	if len(verts) != t.VertCount() || repeated(verts).Ok() {
		return NilEnt
	}
	switch t {
	case Vertex:
		return verts[0]
	case Edge, Tri, Tet:
		e := m.findEdge(verts[0], verts[1])
		if t == Edge || !e.Ok() {
			return e
		}
		return m.findAbove(e, t, verts)
	}
	return m.findAbove(verts[0], t, verts)
}

// repeated returns the first vertex that verts lists twice, or NilEnt.
func repeated(verts []Ent) Ent {
	for i, v := range verts {
		if slices.Contains(verts[:i], v) {
			return v
		}
	}
	return NilEnt
}

// findEdge returns the edge joining vertices a and b, or NilEnt: the
// user of a whose other end is b.
func (m *Mesh) findEdge(a, b Ent) Ent {
	td := &m.td[Edge]
	for u := m.td[Vertex].firstUse[a.I]; u.ok(); u = m.useNext(u) {
		if e := u.ent(); td.down[int(e.I)*2+1-u.slot()] == b.I {
			return e
		}
	}
	return NilEnt
}

// findAbove searches the entities above e, all of whose vertices lie in
// verts, for an entity of type t covering verts exactly.
func (m *Mesh) findAbove(e Ent, t Type, verts []Ent) Ent {
	full := uint(1)<<len(verts) - 1
	for u := m.td[e.T].firstUse[e.I]; u.ok(); u = m.useNext(u) {
		c := u.ent()
		last := c.Dim() == t.Dim()
		if last && c.T != t {
			continue
		}
		mask, ok := m.closureMask(c, verts)
		switch {
		case !ok:
		case !last:
			if found := m.findAbove(c, t, verts); found.Ok() {
				return found
			}
		case mask == full:
			return c
		}
	}
	return NilEnt
}

// closureMask reports which positions of verts the vertices of e (an
// edge or above) occupy; ok is false when some vertex of e is not in
// verts. The canonical templates let two downward entities stand for
// all of them: both ends of an edge, edges 0 and 1 of a triangle (0 and
// 2 of a quad), and the base and second face of every region type
// together touch every vertex.
func (m *Mesh) closureMask(e Ent, verts []Ent) (mask uint, ok bool) {
	var s [6]Ent
	down := m.down(e, &s)
	first, second := down[0], down[1]
	if e.T == Edge {
		i, j := slices.Index(verts, first), slices.Index(verts, second)
		if i < 0 || j < 0 {
			return 0, false
		}
		return 1<<i | 1<<j, true
	}
	if e.T == Quad {
		second = down[2]
	}
	a, ok := m.closureMask(first, verts)
	if !ok {
		return 0, false
	}
	b, ok := m.closureMask(second, verts)
	return a | b, ok
}

// BuildFromVerts creates (or finds, if already present) the entity of
// type t with the given canonical vertex order, creating any missing
// intermediate entities. Intermediate entities are classified on c as
// well unless they already exist; callers typically reclassify boundary
// sides afterwards or pass the region classification. It returns the
// entity, and panics on a wrong vertex count or a repeated vertex.
//
// It works bottom-up: each edge is found or created, then each face is
// looked up among the users of its first edge and the region among the
// users of its first face — unless one of the bounding entities was just
// created, since nothing can predate its own boundary. Missing entities
// are created face by face, a face's edges before the face. One
// non-recursive builder per dimension: a self-recursive form makes
// escape analysis give up on the stack vertex arrays.
func (m *Mesh) BuildFromVerts(t Type, verts []Ent, c gmi.Ref) Ent {
	if len(verts) != t.VertCount() {
		panic(fmt.Sprintf("mesh: %v needs %d vertices, got %d", t, t.VertCount(), len(verts)))
	}
	if v := repeated(verts); v.Ok() {
		panic(fmt.Sprintf("mesh: %v lists vertex %v twice", t, v))
	}
	switch t.Dim() {
	case 0:
		return verts[0]
	case 1:
		e, _ := m.buildEdge(verts[0], verts[1], c)
		return e
	case 2:
		f, _ := m.buildFace(t, verts, c)
		return f
	}
	var down [6]Ent
	faces, fresh := down[:len(downTypes[t])], false
	for i, ft := range downTypes[t] {
		var fv [4]Ent
		idx := downVerts[t][i]
		for j, li := range idx {
			fv[j] = verts[li]
		}
		f, isNew := m.buildFace(ft, fv[:len(idx)], c)
		faces[i], fresh = f, fresh || isNew
	}
	if !fresh {
		if r := m.FindByDown(t, faces); r.Ok() {
			return r
		}
	}
	return m.CreateEntity(t, c, faces)
}

// buildEdge finds or creates the edge from a to b; made reports a
// creation.
func (m *Mesh) buildEdge(a, b Ent, c gmi.Ref) (e Ent, made bool) {
	if found := m.findEdge(a, b); found.Ok() {
		return found, false
	}
	ends := [2]Ent{a, b}
	return m.CreateEntity(Edge, c, ends[:]), true
}

// buildFace finds or creates the face of type t on the vertex cycle
// verts, edges first; made reports that the face was created.
func (m *Mesh) buildFace(t Type, verts []Ent, c gmi.Ref) (f Ent, made bool) {
	var down [4]Ent
	edges, fresh := down[:len(downVerts[t])], false
	for i, idx := range downVerts[t] {
		e, isNew := m.buildEdge(verts[idx[0]], verts[idx[1]], c)
		edges[i], fresh = e, fresh || isNew
	}
	if !fresh {
		if found := m.FindByDown(t, edges); found.Ok() {
			return found, false
		}
	}
	return m.CreateEntity(t, c, edges), true
}
