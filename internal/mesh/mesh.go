// Package mesh implements the unstructured mesh representation at the
// heart of PUMI: a complete, boundary-representation mesh storing the
// base topological entities (vertex, edge, face, region) with O(1)
// one-level adjacency in both directions, geometric classification
// against a gmi model, coordinates, tags, sets and iterators, and the
// per-entity parallel data (remote copies, ghosts and their owners) the
// partition layer maintains.
//
// Storage follows PUMI's MDS design: per-type struct-of-arrays with
// free lists, so entities can be created and destroyed dynamically (as
// mesh adaptation and migration require) without invalidating other
// handles, and adjacency queries never allocate: the buffer forms
// (DownTo, UpTo, AdjacentTo, BridgeAdjacentTo, VertsTo) append to a
// caller-owned slice, FindFromVerts and UpCount return scalars, and the
// names without "To" allocate only the slice they return.
// Downward adjacency is stored explicitly; upward adjacency is stored
// as intrusive "use" lists threaded through the downward slots, giving
// constant-time insertion, deletion and iteration proportional only to
// local valence — the "complete representation with O(1) adjacency
// interrogation" the paper requires.
//
// Every handle in storage is four bytes, as every id in MDS is one int:
// a downward slot holds the index alone (its type is downTypes[t][slot])
// and a use is one packed word, so a type holds at most MaxSlots
// entities. Handles leave storage as Ent; Mesh.Footprint gives the bytes
// by array.
package mesh

import (
	"fmt"
	"slices"
	"unsafe"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/vec"
)

// use identifies one downward slot of an upward entity: that entity's
// slot-th downward adjacency points at the use's target. Uses of the
// same target form a singly linked list (the upward adjacency). It is
// the entity's packed handle with the slot in the top three bits.
type use uint32

const nilUse = use(PackedNil)

func makeUse(e Ent, slot int) use { return use(e.Pack()) | use(slot)<<packBits }

func (u use) ok() bool  { return u != nilUse }
func (u use) ent() Ent  { return unpack(uint32(u)) }
func (u use) slot() int { return int(u >> packBits) }

// typeData is the storage of all entities of one type; what only a
// boundary-table slot needs (remote copies, a ghost's owner) is in its
// linkStore.
type typeData struct {
	degree   int      // downward adjacencies per entity
	down     []int32  // len = slots * degree: index of type downTypes[t][slot], -1 = none
	firstUse []use    // per slot: head of this entity's upward use list
	nextUse  []use    // len = slots * degree: next use after (ent, slot)
	classif  []uint32 // geometric classification, packed (packRef)
	flags    []uint8  // flagAlive
	free     []int32
	nAlive   int
}

func (td *typeData) slots() int32 { return int32(len(td.flags)) }

func (td *typeData) alive(i int32) bool { return td.flags[i]&flagAlive != 0 }

// flagAlive is the slot flag of a live entity.
const flagAlive uint8 = 1

// A classification is stored in four bytes: the model dimension plus
// one in the top three bits, the tag in the rest, so gmi.NoRef packs to
// zero.
const refTagBits = 29

// Classifiable reports whether storage can hold c as a classification:
// gmi.NoRef, or a model dimension 0-3 with a tag in [0, 2^29).
func Classifiable(c gmi.Ref) bool {
	return c == gmi.NoRef || c.Dim >= 0 && c.Dim <= 3 && c.Tag >= 0 && c.Tag < 1<<refTagBits
}

func packRef(c gmi.Ref) uint32 {
	if !Classifiable(c) {
		panic(fmt.Sprintf("mesh: classification %v does not fit storage's four bytes (mesh.Classifiable)", c))
	}
	return uint32(c.Dim+1)<<refTagBits | uint32(c.Tag)
}

func unpackRef(p uint32) gmi.Ref {
	return gmi.Ref{Dim: int8(p>>refTagBits) - 1, Tag: int32(p & (1<<refTagBits - 1))}
}

// Mesh is one part of a (possibly distributed) mesh: a serial mesh plus
// the part boundary data linking it to peer parts. All methods are
// single-goroutine; in a parallel run each rank owns its parts.
type Mesh struct {
	model *gmi.Model
	dim   int
	part  int32

	td [TypeCount]typeData

	coords []vec.V // per vertex slot

	// links stores, per type, the boundary table — the remote-copy
	// chain of every slot with remote copies, and every ghost's owner —
	// and the chains' link records (see links.go).
	links [TypeCount]linkStore

	// epoch is the topology epoch: bumped by every mutation that can
	// change the part-boundary communication structure. See TopoEpoch.
	epoch uint64

	// nb caches NeighborParts per dimension against the epoch.
	nb [4]nbCache

	// Tags attaches arbitrary user data to entities, in dense columns
	// indexed like td: one per (tag, entity type), see ds.TagTable.
	Tags *ds.TagTable[Ent]

	// sets are named groupings of entities.
	sets map[string]*ds.Set[Ent]

	// onCreate/onDestroy observers let higher layers (global
	// numbering, fields) track entity lifecycle regardless of which
	// module creates or destroys entities.
	onCreate  []func(Ent)
	onDestroy []func(Ent)

	// guard, when non-nil, checks every mutation (pumi-san).
	guard Guard
}

// New creates an empty mesh part of the given dimension (2 or 3)
// classified against the given geometric model (which may be nil for
// model-free meshes).
func New(model *gmi.Model, dim int) *Mesh {
	if dim < 1 || dim > 3 {
		panic(fmt.Sprintf("mesh: bad dimension %d", dim))
	}
	m := &Mesh{
		model: model,
		dim:   dim,
		Tags:  ds.NewTagTable[Ent](),
		sets:  map[string]*ds.Set[Ent]{},
	}
	for t := Type(0); t < TypeCount; t++ {
		m.td[t].degree = t.DownCount()
		m.links[t].free = -1
	}
	m.epoch = 1
	m.Tags.OnSet = func(e Ent) { m.guardWrite("tag", e) }
	m.Tags.SlotCount = func(t int) int { return len(m.td[t].flags) }
	return m
}

// Model returns the geometric model the mesh is classified against.
func (m *Mesh) Model() *gmi.Model { return m.model }

// Dim returns the mesh dimension: the highest entity dimension meshes
// of this part may carry (elements are entities of this dimension).
func (m *Mesh) Dim() int { return m.dim }

// Part returns this part's id within the distributed mesh.
func (m *Mesh) Part() int32 { return m.part }

// SetPart assigns this part's id; the partition layer calls it when
// parts are created.
func (m *Mesh) SetPart(id int32) { m.part = id }

// Count returns the number of live entities of the given dimension.
func (m *Mesh) Count(dim int) int {
	n := 0
	for _, t := range typesOfDim[dim] {
		n += m.td[t].nAlive
	}
	return n
}

// CountType returns the number of live entities of one type.
func (m *Mesh) CountType(t Type) int { return m.td[t].nAlive }

// Alive reports whether the handle names a live entity.
func (m *Mesh) Alive(e Ent) bool {
	if !e.Ok() || e.T >= TypeCount {
		return false
	}
	td := &m.td[e.T]
	return e.I < td.slots() && td.alive(e.I)
}

// checkSlots panics when n slots of type t would not fit a packed handle.
func checkSlots(t Type, n int) {
	if n > MaxSlots {
		panic(fmt.Sprintf("mesh: %d %v slots exceed mesh.MaxSlots = %d, the capacity of the four-byte handle in storage", n, t, MaxSlots))
	}
}

// alloc returns a fresh slot for type t, growing arrays as needed.
func (m *Mesh) alloc(t Type) int32 {
	td := &m.td[t]
	var idx int32
	if n := len(td.free); n > 0 {
		// Destroy left the slot interior, unclassified and unflagged.
		idx = td.free[n-1]
		td.free = td.free[:n-1]
		td.flags[idx] = flagAlive
		for j := 0; j < td.degree; j++ {
			td.down[int(idx)*td.degree+j] = -1
			td.nextUse[int(idx)*td.degree+j] = nilUse
		}
		td.firstUse[idx] = nilUse
	} else {
		idx = td.slots()
		checkSlots(t, int(idx)+1)
		for j := 0; j < td.degree; j++ {
			td.down = append(td.down, -1)
			td.nextUse = append(td.nextUse, nilUse)
		}
		td.firstUse = append(td.firstUse, nilUse)
		td.classif = append(td.classif, 0)
		td.flags = append(td.flags, flagAlive)
		m.links[t].bnd = append(m.links[t].bnd, -1)
		if t == Vertex {
			m.coords = append(m.coords, vec.V{})
		}
	}
	td.nAlive++
	m.bumpEpoch()
	return idx
}

// Reserve makes room for n more entities of type t without creating
// any: the per-slot arrays grow once, by what the free list does not
// cover, instead of a slot at a time under alloc. It returns the slot
// count the room extends to, for layers keeping per-slot columns.
func (m *Mesh) Reserve(t Type, n int) int {
	td := &m.td[t]
	n = max(0, n-len(td.free))
	checkSlots(t, len(td.flags)+n)
	td.down = slices.Grow(td.down, n*td.degree)
	td.nextUse = slices.Grow(td.nextUse, n*td.degree)
	td.firstUse = slices.Grow(td.firstUse, n)
	td.classif = slices.Grow(td.classif, n)
	td.flags = slices.Grow(td.flags, n)
	m.links[t].bnd = slices.Grow(m.links[t].bnd, n)
	if t == Vertex {
		m.coords = slices.Grow(m.coords, n)
	}
	return len(td.flags) + n
}

// ReserveBoundary makes room for n more boundary-table entries of type
// t — slots gaining a first remote copy or becoming ghosts — and for
// links more remote-copy links beyond those the free list holds, so
// that a loader or a stitch round knowing how many come grows once.
func (m *Mesh) ReserveBoundary(t Type, n, links int) {
	m.links[t].entries = slices.Grow(m.links[t].entries, n)
	m.links[t].reserve(links)
}

// Footprint is the bytes a mesh's entity storage holds, by array. A slot
// costs 8 per downward entity + 13 (a tet 45, a tri 37, an edge 29, a
// vertex 37 with its coordinates); a slot with remote copies or a ghost
// adds a 12-byte boundary entry, and each of its remote-copy links a
// 12-byte record.
type Footprint struct {
	Down    int // downward indices, 4 per downward slot
	Uses    int // use-list heads and nexts, 4 per slot + 4 per downward slot
	Classif int // geometric classification, 4 per slot
	State   int // flags (the live bit among them), 1 per slot
	Links   int // boundary index, 4 per slot; boundary entries and link records, 12 each
	Coords  int // vertex coordinates, 24 per vertex slot
}

// Total is the sum over the arrays.
func (f Footprint) Total() int {
	return f.Down + f.Uses + f.Classif + f.State + f.Links + f.Coords
}

// Footprint returns the bytes in use (lengths, not capacities) by the
// per-slot arrays of every type, free slots included. Tags, sets and
// free lists are not entity storage and are left out.
func (m *Mesh) Footprint() Footprint {
	var f Footprint
	for t := Type(0); t < TypeCount; t++ {
		f.add(m, t)
	}
	return f
}

// add accumulates the arrays of one type.
func (f *Footprint) add(m *Mesh, t Type) {
	td, ls := &m.td[t], &m.links[t]
	f.Down += sliceBytes(td.down)
	f.Uses += sliceBytes(td.firstUse) + sliceBytes(td.nextUse)
	f.Classif += sliceBytes(td.classif)
	f.State += sliceBytes(td.flags)
	f.Links += sliceBytes(ls.bnd) + sliceBytes(ls.entries) + sliceBytes(ls.part) + sliceBytes(ls.ent) + sliceBytes(ls.next)
	if t == Vertex {
		f.Coords += sliceBytes(m.coords)
	}
}

func sliceBytes[T any](s []T) int {
	var z T
	return len(s) * int(unsafe.Sizeof(z))
}

// OnCreate registers an observer called after every entity creation.
func (m *Mesh) OnCreate(f func(Ent)) { m.onCreate = append(m.onCreate, f) }

// OnDestroy registers an observer called before every entity
// destruction (while the entity is still alive).
func (m *Mesh) OnDestroy(f func(Ent)) { m.onDestroy = append(m.onDestroy, f) }

func (m *Mesh) notifyCreate(e Ent) {
	for _, f := range m.onCreate {
		f(e)
	}
}

// CreateVertex creates a mesh vertex classified on the given model
// entity at the given position.
func (m *Mesh) CreateVertex(c gmi.Ref, p vec.V) Ent {
	pc := packRef(c)
	idx := m.alloc(Vertex)
	m.coords[idx] = p
	m.td[Vertex].classif[idx] = pc
	e := Ent{T: Vertex, I: idx}
	m.guardWrite("create", e)
	m.notifyCreate(e)
	return e
}

// CreateEntity creates an entity of type t from its one-level downward
// adjacent entities, which must be live, of the correct types, none
// twice, and — for faces — listed in cycle order (edge i runs from face
// vertex i to i+1); it panics on a list TryCreateEntity refuses. Use
// BuildFromVerts to create higher-dimension entities directly from
// vertices.
func (m *Mesh) CreateEntity(t Type, c gmi.Ref, down []Ent) Ent {
	e, err := m.TryCreateEntity(t, c, down)
	if err != nil {
		panic(err)
	}
	return e
}

// TryCreateEntity is CreateEntity returning why down cannot be the
// downward entities of a new type-t entity, creating nothing then.
func (m *Mesh) TryCreateEntity(t Type, c gmi.Ref, down []Ent) (Ent, error) {
	if t == Vertex {
		panic("mesh: use CreateVertex for vertices")
	}
	want := downTypes[t]
	if len(down) != len(want) {
		return NilEnt, fmt.Errorf("mesh: %v needs %d downward entities, got %d", t, len(want), len(down))
	}
	for i, d := range down {
		switch {
		case !m.Alive(d):
			return NilEnt, fmt.Errorf("mesh: downward entity %v of new %v is not alive", d, t)
		case d.T != want[i]:
			return NilEnt, fmt.Errorf("mesh: downward entity %d of %v is a %v, want a %v", i, t, d.T, want[i])
		case slices.Contains(down[:i], d):
			return NilEnt, fmt.Errorf("mesh: %v lists %v twice", t, d)
		}
	}
	pc := packRef(c)
	idx := m.alloc(t)
	e := Ent{T: t, I: idx}
	td := &m.td[t]
	base := int(idx) * td.degree
	for j, d := range down {
		td.down[base+j] = d.I
		dtd := &m.td[d.T]
		td.nextUse[base+j] = dtd.firstUse[d.I]
		dtd.firstUse[d.I] = makeUse(e, j)
	}
	td.classif[idx] = pc
	m.guardWrite("create", e)
	m.notifyCreate(e)
	return e, nil
}

// Destroy removes an entity, which must have no live upward
// adjacencies. Downward entities are left alone (PUMI semantics: the
// caller removes orphans explicitly or via DestroyRecursive).
func (m *Mesh) Destroy(e Ent) {
	if !m.Alive(e) {
		panic(fmt.Sprintf("mesh: destroying dead entity %v", e))
	}
	td := &m.td[e.T]
	if td.firstUse[e.I].ok() {
		panic(fmt.Sprintf("mesh: destroying %v which still bounds other entities", e))
	}
	m.guardWrite("destroy", e)
	for _, f := range m.onDestroy {
		f(e)
	}
	base := int(e.I) * td.degree
	for j, dt := range downTypes[e.T] {
		m.unlinkUse(Ent{T: dt, I: td.down[base+j]}, makeUse(e, j))
		td.down[base+j] = -1
	}
	m.Tags.DeleteAll(e)
	m.links[e.T].clear(e.I, true)
	for _, s := range m.sets {
		s.Remove(e)
	}
	td.classif[e.I] = 0
	td.flags[e.I] = 0
	td.firstUse[e.I] = nilUse
	td.free = append(td.free, e.I)
	td.nAlive--
	m.bumpEpoch()
}

// DestroyRecursive removes an entity and any downward entities left
// without upward adjacencies, cascading to vertices.
func (m *Mesh) DestroyRecursive(e Ent) {
	var s [6]Ent
	down := m.down(e, &s)
	m.Destroy(e)
	for _, d := range down {
		if m.Alive(d) && !m.HasUp(d) {
			m.DestroyRecursive(d)
		}
	}
}

// unlinkUse removes the given use from target's use list.
func (m *Mesh) unlinkUse(target Ent, u use) {
	dtd := &m.td[target.T]
	cur := dtd.firstUse[target.I]
	if cur == u {
		dtd.firstUse[target.I] = m.useNext(cur)
		return
	}
	for cur.ok() {
		next := m.useNext(cur)
		if next == u {
			m.setUseNext(cur, m.useNext(next))
			return
		}
		cur = next
	}
	panic(fmt.Sprintf("mesh: use of %v by %v not found", target, u.ent()))
}

// useSlot locates u in its entity's type storage: the position of the
// downward slot in down and nextUse.
func (m *Mesh) useSlot(u use) (*typeData, int) {
	e := u.ent()
	td := &m.td[e.T]
	return td, int(e.I)*td.degree + u.slot()
}

func (m *Mesh) useNext(u use) use {
	td, i := m.useSlot(u)
	return td.nextUse[i]
}

func (m *Mesh) setUseNext(u, next use) {
	td, i := m.useSlot(u)
	td.nextUse[i] = next
}

// Coord returns a vertex's position.
func (m *Mesh) Coord(v Ent) vec.V {
	if v.T != Vertex {
		panic(fmt.Sprintf("mesh: Coord of non-vertex %v", v))
	}
	return m.coords[v.I]
}

// SetCoord moves a vertex.
func (m *Mesh) SetCoord(v Ent, p vec.V) {
	if v.T != Vertex {
		panic(fmt.Sprintf("mesh: SetCoord of non-vertex %v", v))
	}
	m.guardWrite("coord", v)
	m.coords[v.I] = p
}

// Classification returns the model entity e is classified on.
func (m *Mesh) Classification(e Ent) gmi.Ref { return unpackRef(m.td[e.T].classif[e.I]) }

// SetClassification reclassifies e. It panics on a classification
// storage cannot hold (see Classifiable).
func (m *Mesh) SetClassification(e Ent, c gmi.Ref) {
	m.guardWrite("classify", e)
	m.td[e.T].classif[e.I] = packRef(c)
}

// IterType iterates the live entities of one type in slot order.
func (m *Mesh) IterType(t Type) ds.Seq[Ent] {
	return func(yield func(Ent) bool) {
		td := &m.td[t]
		for i := int32(0); i < td.slots(); i++ {
			if td.alive(i) {
				if !yield(Ent{T: t, I: i}) {
					return
				}
			}
		}
	}
}

// Iter iterates the live entities of one dimension, vertex-type first,
// in slot order.
func (m *Mesh) Iter(dim int) ds.Seq[Ent] {
	return func(yield func(Ent) bool) {
		for _, t := range typesOfDim[dim] {
			for e := range m.IterType(t) {
				if !yield(e) {
					return
				}
			}
		}
	}
}

// Elements iterates the mesh elements (entities of the mesh dimension).
func (m *Mesh) Elements() ds.Seq[Ent] { return m.Iter(m.dim) }

// Set returns the named entity set, creating it if absent.
func (m *Mesh) Set(name string) *ds.Set[Ent] {
	s := m.sets[name]
	if s == nil {
		s = ds.NewSet[Ent]()
		m.sets[name] = s
	}
	return s
}
