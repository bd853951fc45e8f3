package mesh

import (
	"cmp"
	"fmt"
)

// Type enumerates the topological entity types the mesh representation
// supports: the base entities vertex (0D), edge (1D), face (2D:
// triangle, quadrilateral) and region (3D: tetrahedron, hexahedron,
// prism, pyramid).
type Type uint8

// Entity types.
const (
	Vertex Type = iota
	Edge
	Tri
	Quad
	Tet
	Hex
	Prism
	Pyramid
	TypeCount
)

var typeNames = [TypeCount]string{
	"vertex", "edge", "tri", "quad", "tet", "hex", "prism", "pyramid",
}

func (t Type) String() string {
	if t < TypeCount {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// typeDims gives the topological dimension of each type.
var typeDims = [TypeCount]int{0, 1, 2, 2, 3, 3, 3, 3}

// Dim returns the topological dimension of the type.
func (t Type) Dim() int { return typeDims[t] }

// typesOfDim lists the types of each dimension, in Type order.
var typesOfDim = [4][]Type{
	{Vertex},
	{Edge},
	{Tri, Quad},
	{Tet, Hex, Prism, Pyramid},
}

// TypesOfDim returns the entity types of the given dimension.
func TypesOfDim(dim int) []Type { return typesOfDim[dim] }

// nVerts gives the canonical vertex count per type.
var nVerts = [TypeCount]int{1, 2, 3, 4, 4, 8, 6, 5}

// VertCount returns the canonical number of vertices of the type.
func (t Type) VertCount() int { return nVerts[t] }

// downTypes[t] lists the types of t's one-level downward adjacent
// entities in canonical order; downVerts[t][i] lists the canonical
// vertex indices of the i-th downward entity.
//
// Conventions: face edges form the cycle edge i = (v_i, v_{i+1}); the
// first region face is the "base". Tet vertices 0..3 with base (0,1,2);
// hex bottom (0,1,2,3) and top (4,5,6,7); prism bottom triangle (0,1,2)
// and top (3,4,5); pyramid base quad (0,1,2,3) with apex 4.
var downTypes = [TypeCount][]Type{
	Vertex:  nil,
	Edge:    {Vertex, Vertex},
	Tri:     {Edge, Edge, Edge},
	Quad:    {Edge, Edge, Edge, Edge},
	Tet:     {Tri, Tri, Tri, Tri},
	Hex:     {Quad, Quad, Quad, Quad, Quad, Quad},
	Prism:   {Tri, Tri, Quad, Quad, Quad},
	Pyramid: {Quad, Tri, Tri, Tri, Tri},
}

var downVerts = [TypeCount][][]int{
	Vertex: nil,
	Edge:   {{0}, {1}},
	Tri:    {{0, 1}, {1, 2}, {2, 0}},
	Quad:   {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	Tet: {
		{0, 1, 2}, // base
		{0, 1, 3},
		{1, 2, 3},
		{0, 2, 3},
	},
	Hex: {
		{0, 1, 2, 3}, // bottom
		{4, 5, 6, 7}, // top
		{0, 1, 5, 4},
		{1, 2, 6, 5},
		{2, 3, 7, 6},
		{3, 0, 4, 7},
	},
	Prism: {
		{0, 1, 2}, // bottom
		{3, 4, 5}, // top
		{0, 1, 4, 3},
		{1, 2, 5, 4},
		{2, 0, 3, 5},
	},
	Pyramid: {
		{0, 1, 2, 3}, // base
		{0, 1, 4},
		{1, 2, 4},
		{2, 3, 4},
		{3, 0, 4},
	},
}

// DownCount returns the number of one-level downward adjacent entities.
func (t Type) DownCount() int { return len(downTypes[t]) }

// Ent is an entity handle: the unique identifier M^d_i of a mesh entity
// within one part, combining its topological type and slot index.
// Handles stay valid until the entity is destroyed; slots of destroyed
// entities may be reused by later creations.
type Ent struct {
	T Type
	I int32
}

// NilEnt is the invalid handle.
var NilEnt = Ent{I: -1}

// Storage keeps a handle as four bytes: the index in the low
// packIndexBits bits, the type in the three above, and the top three
// free for the holder — the mesh's use lists put a downward slot there
// (mesh.go), the partition layer's gid index leaves them zero.
const (
	packIndexBits = 26
	packTypeBits  = 3
	packBits      = packIndexBits + packTypeBits
)

// MaxSlots is the number of slots one entity type can hold, the
// capacity the packed handle's index bits imply.
const MaxSlots = 1 << packIndexBits

// PackedNil is the packed form of NilEnt. No entity and no use packs to
// it: its top three bits name slot 7 and no type has seven downward
// entities.
const PackedNil = ^uint32(0)

// Pack returns the handle's four-byte storage form; see UnpackEnt.
// NilEnt packs to PackedNil: its index is all ones.
func (e Ent) Pack() uint32 { return uint32(e.T)<<packIndexBits | uint32(e.I) }

// UnpackEnt is the inverse of Ent.Pack.
func UnpackEnt(p uint32) Ent {
	if p == PackedNil {
		return NilEnt
	}
	return unpack(p)
}

// unpack decodes the low packBits bits of a word known not to be
// PackedNil.
func unpack(p uint32) Ent {
	return Ent{T: Type(p >> packIndexBits & (1<<packTypeBits - 1)), I: int32(p & (MaxSlots - 1))}
}

// Ok reports whether the handle names an entity (it does not check
// liveness; see Mesh.Alive).
func (e Ent) Ok() bool { return e.I >= 0 }

// Dim returns the entity's topological dimension.
func (e Ent) Dim() int { return typeDims[e.T] }

// TagSlot places the entity in tag storage (ds.TagKey): one column per
// type, indexed by slot.
func (e Ent) TagSlot() (group, slot int) { return int(e.T), int(e.I) }

func (e Ent) String() string {
	if !e.Ok() {
		return "M(nil)"
	}
	return fmt.Sprintf("M%d(%v %d)", e.Dim(), e.T, e.I)
}

// Less orders handles by (dimension, type, index); used wherever a
// deterministic entity order is required.
func (e Ent) Less(o Ent) bool {
	if e.T != o.T {
		return e.T < o.T
	}
	return e.I < o.I
}

// Compare is the three-way form of Less, for slices.SortFunc.
func (e Ent) Compare(o Ent) int {
	if e.T != o.T {
		return cmp.Compare(e.T, o.T)
	}
	return cmp.Compare(e.I, o.I)
}
