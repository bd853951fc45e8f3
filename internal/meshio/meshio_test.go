package meshio

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/field"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/vec"
)

func TestRoundTrip3D(t *testing.T) {
	model := gmi.Box(2, 1, 1)
	m := meshgen.Box3D(model, 3, 2, 2)
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf, model.Model)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d <= 3; d++ {
		if m2.Count(d) != m.Count(d) {
			t.Fatalf("dim %d: %d vs %d", d, m2.Count(d), m.Count(d))
		}
	}
	if err := m2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Classification preserved: boundary face counts match.
	nb1, nb2 := 0, 0
	for f := range m.Iter(2) {
		if m.Classification(f).Dim == 2 {
			nb1++
		}
	}
	for f := range m2.Iter(2) {
		if m2.Classification(f).Dim == 2 {
			nb2++
		}
	}
	if nb1 != nb2 {
		t.Fatalf("boundary faces %d vs %d", nb1, nb2)
	}
	// Volume preserved.
	v1, v2 := 0.0, 0.0
	for el := range m.Elements() {
		v1 += m.Measure(el)
	}
	for el := range m2.Elements() {
		v2 += m2.Measure(el)
	}
	if v1 != v2 {
		t.Fatalf("volume %g vs %g", v1, v2)
	}
}

func TestRoundTrip2D(t *testing.T) {
	model := gmi.Rect(1, 2)
	m := meshgen.Rect2D(model, 3, 4)
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf, model.Model)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Count(2) != 24 || m2.Count(0) != 20 {
		t.Fatalf("counts %d %d", m2.Count(2), m2.Count(0))
	}
	if err := m2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.pumi")
	model := gmi.Box(1, 1, 1)
	m := meshgen.Box3D(model, 2, 2, 2)
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadFile(path, model.Model)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Count(3) != 48 {
		t.Fatalf("tets = %d", m2.Count(3))
	}
	if _, err := LoadFile(filepath.Join(dir, "missing"), nil); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := Read(strings.NewReader("JUNKJUNK"), nil); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(strings.NewReader(""), nil); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated stream.
	model := gmi.Box(1, 1, 1)
	m := meshgen.Box3D(model, 1, 1, 1)
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc), model.Model); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// A forged record: the first triangle names its first vertex twice.
	// The kernel panics on a degenerate entity, so the decoders must
	// answer first.
	bad := append([]byte(nil), buf.Bytes()...)
	edgesAt := len(magicV2) + 8 + m.Count(0)*vertexBytes
	triAt := edgesAt + 4 + m.Count(1)*minEntityBytes + 4
	if mesh.Type(bad[triAt]) != mesh.Tri {
		t.Fatalf("record at %d has type %d, want the first triangle", triAt, bad[triAt])
	}
	v0 := le.Uint32(bad[triAt+5:])
	le.PutUint32(bad[triAt+9:], v0)
	want := fmt.Sprintf("meshio: tri lists vertex %d twice", v0)
	if _, err := decodeMesh(bad, model.Model); err == nil || err.Error() != want {
		t.Errorf("decodeMesh of a triangle with a repeated vertex returned %v, want %q", err, want)
	}
	part := append(le.AppendUint64([]byte(partMagic), uint64(len(bad))), bad...)
	if _, _, err := decodePart(part, 0, model.Model, 3); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("decodePart of a triangle with a repeated vertex returned %v, want an error holding %q", err, want)
	}
}

// TestDecodeRejectsCountsPastMaxSlots forges the vertex count and an
// entity section's count past the kernel's per-type capacity. Both
// decoders must answer with an error naming the limit — the kernel
// panics when told to hold that many — and must do so from the count
// alone: the 1.9 GB of records that would carry the forged vertex count
// past the length guard are not needed to get there.
func TestDecodeRejectsCountsPastMaxSlots(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	good := appendMesh(nil, meshgen.Box3D(model, 1, 1, 1))
	const nvAt = len(magicV2) + 4
	edgesAt := nvAt + 4 + int(le.Uint32(good[nvAt:]))*vertexBytes
	for _, at := range []int{nvAt, edgesAt} {
		for _, n := range []uint32{mesh.MaxSlots + 1, 1<<32 - 1} {
			bad := append([]byte(nil), good...)
			le.PutUint32(bad[at:], n)
			bad = append(bad, make([]byte, 1<<16)...)
			if _, err := decodeMesh(bad, model.Model); err == nil || !strings.Contains(err.Error(), "mesh.MaxSlots") {
				t.Errorf("count %d at offset %d: decodeMesh returned %v, want an error naming mesh.MaxSlots", n, at, err)
			}
			part := le.AppendUint64([]byte(partMagic), uint64(len(bad)))
			part = append(part, bad...)
			if _, _, err := decodePart(part, 0, model.Model, 3); err == nil || !strings.Contains(err.Error(), "mesh.MaxSlots") {
				t.Errorf("count %d at offset %d: decodePart returned %v, want an error naming mesh.MaxSlots", n, at, err)
			}
		}
	}
	if _, err := decodeMesh(good, model.Model); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentRoundTrip(t *testing.T) {
	parts := []int32{0, 1, 2, 1, 0, 3}
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, parts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAssignment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(parts) {
		t.Fatalf("len %d", len(got))
	}
	for i := range parts {
		if got[i] != parts[i] {
			t.Fatal("mismatch")
		}
	}
	if _, err := ReadAssignment(strings.NewReader("NOPE")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestAssignmentRejectsNegativePartID(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, []int32{0, 1, -2, 1}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadAssignment(&buf)
	if err == nil {
		t.Fatal("negative part id accepted")
	}
	if !strings.Contains(err.Error(), "negative part id") {
		t.Fatalf("unstructured error: %v", err)
	}
}

func TestTagAndFieldRoundTrip(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := meshgen.Box3D(model, 2, 2, 2)
	// A float element tag, an int vertex tag, and a nodal field (which
	// is a float-slice tag underneath).
	wt, _ := m.Tags.Create("w", ds.TagFloat, 0)
	for el := range m.Elements() {
		m.Tags.SetFloat(wt, el, m.Centroid(el).X)
	}
	it, _ := m.Tags.Create("id", ds.TagInt, 0)
	i := int64(0)
	for v := range m.Iter(0) {
		m.Tags.SetInt(it, v, i)
		i++
	}
	f, err := field.New(m, "u", 2, field.Linear)
	if err != nil {
		t.Fatal(err)
	}
	f.SetByFunc(func(p vec.V) []float64 { return []float64{p.X, p.Y + p.Z} })

	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf, model.Model)
	if err != nil {
		t.Fatal(err)
	}
	wt2 := m2.Tags.Find("w")
	if wt2 == nil {
		t.Fatal("element tag lost")
	}
	for el := range m2.Elements() {
		got, ok := m2.Tags.GetFloat(wt2, el)
		if !ok || got != m2.Centroid(el).X {
			t.Fatalf("element tag %g at %v", got, m2.Centroid(el))
		}
	}
	it2 := m2.Tags.Find("id")
	seen := map[int64]bool{}
	for v := range m2.Iter(0) {
		got, ok := m2.Tags.GetInt(it2, v)
		if !ok || seen[got] {
			t.Fatal("vertex int tag lost or duplicated")
		}
		seen[got] = true
	}
	f2 := field.Find(m2, "u", field.Linear)
	if f2 == nil || f2.Components() != 2 {
		t.Fatal("field lost")
	}
	for v := range m2.Iter(0) {
		got, ok := f2.Get(v)
		p := m2.Coord(v)
		if !ok || got[0] != p.X || got[1] != p.Y+p.Z {
			t.Fatalf("field values %v at %v", got, p)
		}
	}
}

func TestV1StillReadable(t *testing.T) {
	// A stream with the old magic and no tag section must still load.
	model := gmi.Box(1, 1, 1)
	m := meshgen.Box3D(model, 1, 1, 1)
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Rewrite the magic to V1 and truncate the (empty) tag directory.
	copy(raw, []byte("PUMIGO01"))
	// The empty tag section is 4 bytes (count) + 1 presence byte per
	// entity; removing it must still parse under V1.
	nEnts := m.Count(0) + m.Count(1) + m.Count(2) + m.Count(3)
	trunc := raw[:len(raw)-4-nEnts]
	m2, err := Read(bytes.NewReader(trunc), model.Model)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Count(3) != 6 {
		t.Fatalf("tets = %d", m2.Count(3))
	}
}
