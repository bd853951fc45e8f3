package meshio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
)

// taggedBox is a 2×2×2 box carrying one tag of every kind, each on a
// strict subset of some entity type so records with 0, 1 and several
// entries all occur.
func taggedBox(t testing.TB) *mesh.Mesh {
	t.Helper()
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	create := func(name string, kind ds.TagKind, size int) *ds.Tag {
		tag, err := m.Tags.Create(name, kind, size)
		if err != nil {
			t.Fatal(err)
		}
		return tag
	}
	w := create("w", ds.TagFloat, 0)
	id := create("id", ds.TagInt, 0)
	uv := create("uv", ds.TagFloatSlice, 3)
	ij := create("ij", ds.TagIntSlice, 2)
	blob := create("blob", ds.TagBytes, 5)
	local := create("local", ds.TagAny, 0)
	for el := range m.Elements() {
		if el.I%3 != 0 {
			m.Tags.SetFloat(w, el, m.Centroid(el).X)
		}
		m.Tags.SetAny(local, el, "not serialized")
	}
	for v := range m.Iter(0) {
		p := m.Coord(v)
		m.Tags.SetInt(id, v, int64(v.I)*7-3)
		if v.I%2 == 0 {
			m.Tags.SetFloats(uv, v, []float64{p.X, p.Y, -p.Z})
			m.Tags.SetBytes(blob, v, []byte{byte(v.I), 1, 2, 3, 4})
		}
	}
	for e := range m.Iter(1) {
		if e.I%4 == 1 {
			m.Tags.SetInts(ij, e, []int64{int64(e.I), -int64(e.I)})
		}
	}
	return m
}

// TestGoldenTaggedWriteBytes pins the tagged file's bytes. The hash was
// re-pinned when the mesh file became a shipment; the previous encoder
// applied to the same mesh still gave the one captured at the last
// commit that kept tags in map[Ent]any and encoded them with
// binary.Write (73dd50d).
func TestGoldenTaggedWriteBytes(t *testing.T) {
	const golden = "e5be41802c5f25e8c85ceb140010ea6a4b873b63f471b2a6f65ebf15258958ec"
	var buf bytes.Buffer
	if err := Write(&buf, taggedBox(t)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("meshio.Write of the tagged box: sha256 %s, want %s", got, golden)
	}
}

// TestReadTagsRejectsLayoutMismatch: a directory naming one tag twice
// must fail the load, under two layouts or one, rather than decode one
// entry's values with the other's layout.
func TestReadTagsRejectsLayoutMismatch(t *testing.T) {
	good, _ := forgedSerial(t)
	sh := parseShipment(t, good, serialHead, 3, false)
	for _, c := range [][2]tagDecl{
		{{"uv", ds.TagFloatSlice, 3}, {"uv", ds.TagFloatSlice, 2}}, // same kind, other size
		{{"uv", ds.TagFloatSlice, 3}, {"uv", ds.TagIntSlice, 3}},   // same size, other kind
		{{"w", ds.TagFloat, 1}, {"w", ds.TagInt, 1}},               // scalar of another kind
		{{"w", ds.TagFloat, 1}, {"w", ds.TagFloat, 1}},             // the same layout
	} {
		_, err := Read(bytes.NewReader(sh.withDirectory(c[:]...)), nil)
		if want := fmt.Sprintf("tag %q is listed twice", c[0].name); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: err = %v, want %q", c, err, want)
		}
	}
	if _, err := Read(bytes.NewReader(sh.withDirectory(tagDecl{"uv", ds.TagFloatSlice, 3})), nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadTagsRejectsBadDirectory: a size above maxTagSize or out of its
// kind's range, and a kind the format never writes, are errors before
// anything is allocated.
func TestReadTagsRejectsBadDirectory(t *testing.T) {
	good, _ := forgedSerial(t)
	sh := parseShipment(t, good, serialHead, 3, false)
	for _, c := range []struct {
		tag  tagDecl
		want string
	}{
		{tagDecl{"x", ds.TagIntSlice, 1025}, "has size 1025"},
		{tagDecl{"x", ds.TagBytes, 0}, "has size 0"},
		{tagDecl{"x", ds.TagInt, 2}, "has size 2"},
		{tagDecl{"x", ds.TagAny, 1}, "unknown kind"},
	} {
		if _, err := Read(bytes.NewReader(sh.withDirectory(c.tag)), nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.tag, err, c.want)
		}
	}
}

// TestSlotReuseRoundTrip: an entity created in a destroyed entity's
// slot is written untagged, and the loaded mesh counts tagged entities
// exactly.
func TestSlotReuseRoundTrip(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := taggedBox(t)
	w := m.Tags.Find("w")
	before := m.Tags.CountTagged(w)
	var el mesh.Ent
	for e := range m.Elements() {
		if m.Tags.Has(w, e) {
			el = e
			break
		}
	}
	verts := m.VertsTo(el, nil)
	c := m.Classification(el)
	m.Destroy(el)
	if again := m.BuildFromVerts(mesh.Tet, verts, c); again != el {
		t.Fatalf("rebuilt tet landed in %v, want the freed slot %v", again, el)
	}
	if m.Tags.Has(w, el) || m.Tags.CountTagged(w) != before-1 {
		t.Fatalf("reused slot tagged=%v, count %d, want untagged and %d", m.Tags.Has(w, el), m.Tags.CountTagged(w), before-1)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf, model.Model)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range m.Tags.Tags() {
		if tag.Kind == ds.TagAny {
			continue
		}
		if got, want := m2.Tags.CountTagged(m2.Tags.Find(tag.Name)), m.Tags.CountTagged(tag); got != want {
			t.Errorf("%s: %d tagged after round trip, want %d", tag.Name, got, want)
		}
	}
}
