package meshio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// TestGoldenTaggedWriteBytes pins the tag section's bytes: the hash was
// captured at the last commit that kept tags in map[Ent]any and encoded
// them with binary.Write (PR 13, 73dd50d).
func TestGoldenTaggedWriteBytes(t *testing.T) {
	const golden = "f87fcad998ec74c4d2aa3d110d0b40b23c68032ca5ecfe740bd638c2cdf4f377"
	var buf bytes.Buffer
	if err := Write(&buf, taggedBox(t)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("meshio.Write of the tagged box: sha256 %s, want %s", got, golden)
	}
}

// tagSection returns the bytes appendTags produces for m.
func tagSection(t *testing.T, m *mesh.Mesh) []byte {
	t.Helper()
	return appendTags(nil, m)
}

// TestReadTagsRejectsLayoutMismatch: a directory entry naming a tag the
// mesh already has under another kind or size must fail the load, not
// decode the file's values with the local layout.
func TestReadTagsRejectsLayoutMismatch(t *testing.T) {
	section := tagSection(t, taggedBox(t))
	for _, c := range []struct {
		name string
		kind ds.TagKind
		size int
	}{
		{"uv", ds.TagFloatSlice, 2}, // same kind, other size
		{"uv", ds.TagIntSlice, 3},   // same size, other kind
		{"w", ds.TagInt, 0},         // scalar of another kind
	} {
		m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
		if _, err := m.Tags.Create(c.name, c.kind, c.size); err != nil {
			t.Fatal(err)
		}
		err := readTags(&dec{b: section}, m)
		if err == nil || !strings.Contains(err.Error(), "in the file but") {
			t.Errorf("local %s as %v×%d: err = %v, want a layout mismatch", c.name, c.kind, c.size, err)
		}
	}
	// The same tag under the same layout loads.
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	uv, _ := m.Tags.Create("uv", ds.TagFloatSlice, 3)
	if err := readTags(&dec{b: section}, m); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Tags.CountTagged(uv), (m.Count(0)+1)/2; got != want {
		t.Errorf("uv on %d vertices after load, want %d", got, want)
	}
}

// TestReadTagsRejectsBadDirectory: a size above maxTagSize and a kind
// the format never writes are errors before anything is allocated.
func TestReadTagsRejectsBadDirectory(t *testing.T) {
	directory := func(kind byte, size uint32) []byte {
		le := binary.LittleEndian
		b := le.AppendUint32(nil, 1) // one tag
		b = le.AppendUint32(b, 1)    // name length
		b = append(b, 'x', kind)
		return le.AppendUint32(b, size)
	}
	for want, section := range map[string][]byte{
		"above the limit": directory(byte(ds.TagIntSlice), maxTagSize+1),
		"unknown kind":    directory(byte(ds.TagAny), 1),
	} {
		m := meshgen.Box3D(gmi.Box(1, 1, 1), 1, 1, 1)
		err := readTags(&dec{b: section}, m)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want %q", err, want)
		}
		if m.Tags.Find("x") != nil {
			t.Errorf("%s: rejected tag was created anyway", want)
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
