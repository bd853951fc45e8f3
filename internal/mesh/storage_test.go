package mesh

import (
	"fmt"
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
// entity storage: 8 bytes per downward slot (index + next use) and 22
// per entity (first use 4, classification 8, flags/owner/alive 6, link
// head 4), 24 more for a vertex's coordinates. A handle stored as an
// Ent again costs 4 more per downward slot, a use stored as a struct 8
// more per slot and per downward slot.
func TestFootprintBytesPerSlot(t *testing.T) {
	m := newTestMesh()
	buildTetGrid(m, 4)
	hv := mkVerts(m,
		vec.V{X: 10}, vec.V{X: 11}, vec.V{X: 11, Y: 1}, vec.V{X: 10, Y: 1},
		vec.V{X: 10, Z: 1}, vec.V{X: 11, Z: 1}, vec.V{X: 11, Y: 1, Z: 1}, vec.V{X: 10, Y: 1, Z: 1})
	m.BuildFromVerts(Hex, hv, gmi.NoRef)
	want := [TypeCount]int{Vertex: 46, Edge: 38, Tri: 46, Quad: 54, Tet: 54, Hex: 70}
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
	// A remote-copy link is a 16-byte record and nothing else.
	var v Ent
	for v = range m.IterType(Vertex) {
		break
	}
	m.SetRemote(v, 1, Ent{T: Vertex, I: 7})
	if got := m.Footprint().Links - f.Links; got != 16 {
		t.Errorf("one remote link added %d bytes, want 16", got)
	}
}
