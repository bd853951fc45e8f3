package mesh

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/vec"
)

// panicText runs f and returns what it panicked with, "" if it did not.
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestPackedHandleRoundTrip(t *testing.T) {
	for _, e := range []Ent{
		NilEnt, {T: Vertex, I: 0}, {T: Edge, I: 1}, {T: Tet, I: 12345},
		{T: Pyramid, I: MaxSlots - 1}, {T: Vertex, I: MaxSlots - 1},
	} {
		if got := UnpackEnt(e.Pack()); got != e {
			t.Errorf("UnpackEnt(%v.Pack()) = %v", e, got)
		}
		if !e.Ok() {
			continue
		}
		for slot := 0; slot < 6; slot++ {
			u := makeUse(e, slot)
			if !u.ok() || u.ent() != e || u.slot() != slot {
				t.Errorf("makeUse(%v, %d) reads back as (%v, %d), ok %v", e, slot, u.ent(), u.slot(), u.ok())
			}
		}
	}
	if nilUse.ok() {
		t.Error("nilUse is ok")
	}
}

// TestClassificationPacking round-trips every classification storage
// can hold through its four bytes and checks that one it cannot is
// refused before any slot is taken.
func TestClassificationPacking(t *testing.T) {
	for _, c := range []gmi.Ref{gmi.NoRef, {Dim: 0, Tag: 0}, {Dim: 2, Tag: 3}, {Dim: 3, Tag: 1<<29 - 1}} {
		if !Classifiable(c) || unpackRef(packRef(c)) != c {
			t.Errorf("%v: classifiable %v, reads back as %v", c, Classifiable(c), unpackRef(packRef(c)))
		}
	}
	m := newTestMesh()
	for _, c := range []gmi.Ref{{Dim: 4}, {Dim: -2}, {Dim: 1, Tag: -1}, {Dim: 1, Tag: 1 << 29}, {Dim: -1, Tag: 5}} {
		if Classifiable(c) {
			t.Errorf("%v is classifiable", c)
		}
		if msg := panicText(func() { m.CreateVertex(c, vec.V{}) }); !strings.Contains(msg, "Classifiable") {
			t.Errorf("CreateVertex(%v) panicked with %q", c, msg)
		}
	}
	if n := m.CountType(Vertex); n != 0 || m.td[Vertex].slots() != 0 {
		t.Errorf("refused classifications left %d vertices in %d slots", n, m.td[Vertex].slots())
	}
}

func TestMaxSlotsEnforced(t *testing.T) {
	m := newTestMesh()
	singleTet(m)
	// Reserve checks before it grows anything, so this allocates nothing.
	msg := panicText(func() { m.Reserve(Tet, MaxSlots) })
	if !strings.Contains(msg, "mesh.MaxSlots") {
		t.Fatalf("Reserve past the capacity panicked with %q, want a message naming mesh.MaxSlots", msg)
	}
	if got := m.Reserve(Tet, 10); got != 11 {
		t.Fatalf("Reserve(Tet, 10) = %d slots, want 11", got)
	}
}

// TestCreateEntityRejectsMisorderedPrism hands a prism its faces with a
// quad in a triangle's slot. Storage keeps only the index of a downward
// entity and reads its type off the slot, so a wrong type must not get
// in.
func TestCreateEntityRejectsMisorderedPrism(t *testing.T) {
	m := newTestMesh()
	pv := mkVerts(m,
		vec.V{}, vec.V{X: 1}, vec.V{Y: 1},
		vec.V{Z: 1}, vec.V{X: 1, Z: 1}, vec.V{Y: 1, Z: 1})
	var faces []Ent
	for i, ft := range downTypes[Prism] {
		var fv []Ent
		for _, li := range downVerts[Prism][i] {
			fv = append(fv, pv[li])
		}
		faces = append(faces, m.BuildFromVerts(ft, fv, gmi.NoRef))
	}
	swapped := append([]Ent(nil), faces...)
	swapped[1], swapped[2] = swapped[2], swapped[1] // top triangle <-> first side quad
	msg := panicText(func() { m.CreateEntity(Prism, gmi.NoRef, swapped) })
	if !strings.Contains(msg, "quad") || !strings.Contains(msg, "tri") {
		t.Fatalf("mis-ordered prism panicked with %q, want a message naming both types", msg)
	}
	if m.CountType(Prism) != 0 {
		t.Fatal("mis-ordered prism was created")
	}
	m.CreateEntity(Prism, gmi.NoRef, faces)
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestFootprintBytesPerSlot pins what a slot of each type costs in
// entity storage: 8 bytes per downward slot (index + next use) and 13
// per entity (first use 4, packed classification 4, flags with the live
// bit 1, boundary index 4), 24 more for a vertex's coordinates. Owner
// and links are paid only on the boundary: a slot entering the boundary
// table adds a 12-byte entry, each remote-copy link a 12-byte record. A
// handle stored as an Ent again costs 4 more per downward slot, a use
// stored as a struct 8 more per slot and per downward slot.
func TestFootprintBytesPerSlot(t *testing.T) {
	m := newTestMesh()
	buildTetGrid(m, 4)
	hv := mkVerts(m,
		vec.V{X: 10}, vec.V{X: 11}, vec.V{X: 11, Y: 1}, vec.V{X: 10, Y: 1},
		vec.V{X: 10, Z: 1}, vec.V{X: 11, Z: 1}, vec.V{X: 11, Y: 1, Z: 1}, vec.V{X: 10, Y: 1, Z: 1})
	m.BuildFromVerts(Hex, hv, gmi.NoRef)
	want := [TypeCount]int{Vertex: 37, Edge: 29, Tri: 37, Quad: 45, Tet: 45, Hex: 61}
	total := 0
	for ty, per := range want {
		ty := Type(ty)
		if per == 0 {
			continue
		}
		slots := int(m.td[ty].slots())
		if slots == 0 {
			t.Fatalf("no %v slots to measure", ty)
		}
		var f Footprint
		f.add(m, ty)
		if got := f.Total(); got != per*slots {
			t.Errorf("%v: %d bytes over %d slots = %.1f per slot, want %d (%+v)",
				ty, got, slots, float64(got)/float64(slots), per, f)
		}
		total += per * slots
	}
	f := m.Footprint()
	if f.Total() != total {
		t.Errorf("Footprint().Total() = %d, the types sum to %d", f.Total(), total)
	}
	if nv := int(m.td[Vertex].slots()); f.Coords != 24*nv {
		t.Errorf("Coords = %d bytes for %d vertices, want 24 each", f.Coords, nv)
	}
	// The first link of an interior vertex adds its entry and a record,
	// the second a record; a ghost alone is an entry.
	var v, w Ent
	for v = range m.IterType(Vertex) {
		break
	}
	w = Ent{T: Vertex, I: v.I + 1}
	for i, step := range []struct {
		do   func()
		want int
	}{
		{func() { m.SetRemote(v, 1, Ent{T: Vertex, I: 7}) }, 24},
		{func() { m.SetRemote(v, 2, Ent{T: Vertex, I: 8}) }, 12},
		{func() { m.SetGhost(w, 3) }, 12},
	} {
		before := m.Footprint().Links
		step.do()
		if got := m.Footprint().Links - before; got != step.want {
			t.Errorf("step %d added %d link bytes, want %d", i, got, step.want)
		}
	}
}

// TestReusedSlotIsInterior destroys entities that were on the part
// boundary, owned elsewhere, ghosts and classified, and checks that the
// slots the free list hands out again read as fresh interior entities.
func TestReusedSlotIsInterior(t *testing.T) {
	m := newTestMesh()
	m.SetPart(2)
	var vs []Ent
	for i := range 3 {
		vs = append(vs, m.CreateVertex(gmi.Ref{Dim: 0, Tag: int32(i + 1)}, vec.V{X: float64(i)}))
	}
	m.SetRemote(vs[0], 1, vs[0])
	m.SetRemote(vs[0], 4, vs[1])
	m.SetGhost(vs[1], 1)
	m.SetRemote(vs[2], 5, vs[2])
	for _, v := range vs {
		m.Destroy(v)
	}
	for range vs {
		v := m.CreateVertex(gmi.NoRef, vec.V{})
		if !slices.Contains(vs, v) {
			t.Fatalf("%v is not a reused slot", v)
		}
		if m.Owner(v) != m.Part() || !m.IsOwned(v) || m.Classification(v) != gmi.NoRef ||
			m.HasRemotes(v) || m.NRemotes(v) != 0 || m.IsGhost(v) {
			t.Errorf("reused %v: owner %d, classification %v, %d remotes, ghost %v; want an interior entity",
				v, m.Owner(v), m.Classification(v), m.NRemotes(v), m.IsGhost(v))
		}
	}
	if n := len(m.links[Vertex].entries); n != 0 {
		t.Errorf("%d boundary entries left after every boundary vertex died", n)
	}
	if n := len(slices.Collect(m.PartBoundary(0))); n != 0 {
		t.Errorf("PartBoundary(0) yields %d vertices, want none", n)
	}
}

// TestReserveBoundaryCountsFreeLinks: links the free list can hold take
// no new room, and a shortfall grows the link records once, so that the
// links it was reserved for append nothing.
func TestReserveBoundaryCountsFreeLinks(t *testing.T) {
	m := newTestMesh()
	m.SetPart(0)
	_, vs := singleTet(m)
	ls := &m.links[Vertex]
	for i, v := range vs {
		m.SetRemote(v, 1, v)
		m.SetRemote(v, int32(2+i), v)
	}
	for _, v := range vs {
		m.ClearRemotes(v)
	}
	free := 0
	for id := ls.free; id >= 0; id = ls.next[id] {
		free++
	}
	if free != 2*len(vs) || ls.nfree != free {
		t.Fatalf("free list holds %d records, counted %d; want %d", free, ls.nfree, 2*len(vs))
	}
	room := cap(ls.part)
	m.ReserveBoundary(Vertex, 0, free)
	if cap(ls.part) != room {
		t.Fatalf("reserving %d links the free list holds grew the records from %d to %d", free, room, cap(ls.part))
	}
	m.ReserveBoundary(Vertex, 0, free+100)
	room = cap(ls.part)
	if room-len(ls.part) < 100 || cap(ls.ent) != room || cap(ls.next) != room {
		t.Fatalf("reserving 100 links past the free list left room %d/%d/%d for %d records",
			cap(ls.part), cap(ls.ent), cap(ls.next), len(ls.part))
	}
	for k := range free + 100 {
		m.SetRemote(vs[k%len(vs)], int32(10+k), vs[0])
	}
	if cap(ls.part) != room || ls.nfree != 0 {
		t.Fatalf("setting the reserved links grew the records from %d to %d (%d free)", room, cap(ls.part), ls.nfree)
	}
}
