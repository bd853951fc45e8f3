package mesh

import (
	"slices"

	"github.com/fastmath/pumi-go/internal/ds"
)

// Remote copy management. A part-boundary entity is duplicated on every
// part whose higher-dimension entities it bounds; each copy records the
// handles of its siblings on the other parts. A ghost element links
// the same way to its home copy, and the home to it: elements are never
// on the part boundary, so an element's links are ghost links, and a
// lower ghost holds none. The partition layer maintains these links
// during migration and ghosting.
//
// Links live in the per-type linkStore (links.go): a table of the slots
// with remote copies or ghosts, with chains sorted by part id, so all
// read paths are allocation-free walks in deterministic order and a
// boundary walk costs the boundary, not the part. Ownership is a rule,
// not a field: an entity that is no ghost is owned by the least part of
// its residence, so only a ghost stores its owner. Every mutation that
// can change the part-boundary communication structure — entity
// creation and destruction, remote link edits, ghosting — bumps the
// mesh's topology epoch, which higher layers (the partition layer's
// compiled boundary-exchange plans, this file's NeighborParts cache)
// use to invalidate derived communication schedules.

// TopoEpoch returns the mesh's topology epoch: a counter bumped by any
// mutation that can change the part-boundary communication structure
// (create/destroy, SetRemote/RemoveRemote/ClearRemotes, SetGhost).
// Derived structures cached against an epoch stay valid exactly while
// the epoch is unchanged.
func (m *Mesh) TopoEpoch() uint64 { return m.epoch }

// bumpEpoch advances the topology epoch, invalidating epoch-cached
// derived data (NeighborParts, partition-layer boundary plans).
func (m *Mesh) bumpEpoch() { m.epoch++ }

// SetRemote records that entity e has a copy named h on the given peer
// part.
func (m *Mesh) SetRemote(e Ent, part int32, h Ent) {
	m.guardWrite("remote", e)
	m.links[e.T].set(e.I, part, h)
	m.bumpEpoch()
}

// ClearRemotes removes all remote copy links of e (the entity becomes
// interior from this part's point of view).
func (m *Mesh) ClearRemotes(e Ent) {
	m.guardWrite("remote", e)
	m.links[e.T].clear(e.I, false)
	m.bumpEpoch()
}

// RemoveRemote removes the link to one peer part's copy.
func (m *Mesh) RemoveRemote(e Ent, part int32) {
	m.guardWrite("remote", e)
	m.links[e.T].remove(e.I, part)
	m.bumpEpoch()
}

// RemoteCopy returns e's handle on the given peer part; ok is false if
// no copy is recorded there.
func (m *Mesh) RemoteCopy(e Ent, part int32) (Ent, bool) {
	ls := &m.links[e.T]
	id := ls.find(e.I, part)
	if id < 0 {
		return NilEnt, false
	}
	return UnpackEnt(ls.ent[id]), true
}

// HasRemotes reports whether e carries any remote-copy links (ghost
// links on an element; contrast IsShared).
func (m *Mesh) HasRemotes(e Ent) bool { return m.links[e.T].headOf(e.I) >= 0 }

// NRemotes returns the number of remote copies of e.
func (m *Mesh) NRemotes(e Ent) int { return m.links[e.T].count(e.I) }

// EachRemote walks e's remote copies in ascending part order without
// allocating; yield returning false stops the walk. The links must not
// be mutated during the walk.
func (m *Mesh) EachRemote(e Ent, yield func(part int32, h Ent) bool) {
	ls := &m.links[e.T]
	for cur := ls.headOf(e.I); cur >= 0; cur = ls.next[cur] {
		if !yield(ls.part[cur], UnpackEnt(ls.ent[cur])) {
			return
		}
	}
}

// AppendRemoteParts appends the peer parts holding copies of e to dst,
// in ascending order (sorted by construction — the link chains are
// part-ordered), and returns it.
func (m *Mesh) AppendRemoteParts(e Ent, dst []int32) []int32 {
	ls := &m.links[e.T]
	for cur := ls.headOf(e.I); cur >= 0; cur = ls.next[cur] {
		dst = append(dst, ls.part[cur])
	}
	return dst
}

// AppendResidence appends the residence part set of e — the ids of all
// parts where e exists: this part plus all remote-copy parts, ascending
// — to dst and returns it.
func (m *Mesh) AppendResidence(e Ent, dst []int32) []int32 {
	ls := &m.links[e.T]
	placed := false
	for cur := ls.headOf(e.I); cur >= 0; cur = ls.next[cur] {
		p := ls.part[cur]
		if !placed && m.part <= p {
			placed = true
			dst = append(dst, m.part)
			if p == m.part {
				continue
			}
		}
		dst = append(dst, p)
	}
	if !placed {
		dst = append(dst, m.part)
	}
	return dst
}

// RemoteCopyRef names an entity copy on a peer part.
type RemoteCopyRef struct {
	Part int32
	Ent  Ent
}

// IsShared reports whether e lies on a part boundary: has remote copies
// below the element dimension.
func (m *Mesh) IsShared(e Ent) bool {
	return e.Dim() < m.dim && m.links[e.T].headOf(e.I) >= 0
}

// Residence returns AppendResidence as a set (a partition-model key).
func (m *Mesh) Residence(e Ent) ds.IntSet {
	return ds.NewIntSet(m.AppendResidence(e, nil)...)
}

// Owner returns the owning part of e: the part with the right to
// modify the entity. A ghost's is the part it was copied from; any other
// entity's is the least part of its residence — its own part when it is
// interior or an element (an element's links are ghost links), else the
// lesser of its own part and its first link's, chains being sorted.
func (m *Mesh) Owner(e Ent) int32 {
	if ls := &m.links[e.T]; ls.bnd[e.I] >= 0 {
		switch en := ls.entries[ls.bnd[e.I]]; {
		case en.owner >= 0:
			return en.owner
		case e.Dim() < m.dim:
			return min(m.part, ls.part[en.head])
		}
	}
	return m.part
}

// IsOwned reports whether this part owns e.
func (m *Mesh) IsOwned(e Ent) bool { return m.Owner(e) == m.part }

// IsGhost reports whether e is a read-only ghost copy localized from
// another part.
func (m *Mesh) IsGhost(e Ent) bool {
	ls := &m.links[e.T]
	return ls.bnd[e.I] >= 0 && ls.entries[ls.bnd[e.I]].owner >= 0
}

// SetGhost marks e as a read-only ghost copy of the entity the part
// owner holds, owner being another part. An entity stays a ghost until
// Destroy.
func (m *Mesh) SetGhost(e Ent, owner int32) {
	m.guardWrite("ghost", e)
	ls := &m.links[e.T]
	if ls.bnd[e.I] < 0 {
		ls.enter(e.I)
	}
	ls.entries[ls.bnd[e.I]].owner = owner
	m.bumpEpoch()
}

// BoundaryTable iterates the entities of one dimension that hold a
// boundary-table entry — remote copies, or a ghost — in Iter order,
// walking the table, not the part. The links and ghosts must not be
// mutated during the walk.
func (m *Mesh) BoundaryTable(dim int) ds.Seq[Ent] { return m.tableWalk(dim, false) }

// PartBoundary iterates the shared (part-boundary) entities of one
// dimension: BoundaryTable's, with remote copies, below the elements.
func (m *Mesh) PartBoundary(dim int) ds.Seq[Ent] { return m.tableWalk(dim, true) }

// tableWalk is BoundaryTable, filtered to PartBoundary when shared.
func (m *Mesh) tableWalk(dim int, shared bool) ds.Seq[Ent] {
	return func(yield func(Ent) bool) {
		for _, t := range typesOfDim[dim] {
			for _, en := range m.links[t].sorted() {
				if (!shared || en.head >= 0 && dim < m.dim) && !yield(Ent{T: t, I: en.slot}) {
					return
				}
			}
		}
	}
}

// NeighborParts returns the peer parts this part shares entities of
// dimension dim with ("a part Pi neighbors part Pj over entity type d
// if they share d dimensional mesh entities on part boundary"), in
// ascending order. The result is cached against the topology epoch:
// repeated calls between boundary mutations return the same backing
// slice without allocating. Callers must treat it as read-only.
func (m *Mesh) NeighborParts(dim int) []int32 {
	c := &m.nb[dim]
	if c.epoch == m.epoch {
		return c.parts
	}
	c.parts = c.parts[:0]
	for e := range m.PartBoundary(dim) {
		c.parts = m.AppendRemoteParts(e, c.parts)
	}
	slices.Sort(c.parts)
	c.parts = slices.Compact(c.parts)
	c.epoch = m.epoch
	return c.parts
}
