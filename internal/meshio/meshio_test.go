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
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
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
	// A forged record: the first triangle names its first edge twice.
	// The kernel panics on a degenerate entity, so the decoder must
	// answer first.
	sh := parseShipment(t, buf.Bytes(), serialHead, 3, false)
	tri := sh.recs[2][0].clone()
	tri.down[1] = tri.down[0]
	want := fmt.Sprintf("mesh: tri lists %v twice", mesh.Ent{T: mesh.Edge, I: int32(tri.down[0])})
	if _, err := Read(bytes.NewReader(sh.with(tri)), model.Model); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("Read of a triangle with a repeated edge returned %v, want an error ending %q", err, want)
	}
	// A classification the mesh cannot store: the first vertex's model
	// dimension forged to 9.
	v := sh.recs[0][0]
	v.cls.Dim = 9
	want = "partition: classification g9d#"
	if _, err := Read(bytes.NewReader(sh.with(v)), model.Model); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("Read of a vertex classified in dimension 9 returned %v, want an error starting %q", err, want)
	}
}

// TestDecodeRejectsCountsPastMaxSlots forges the vertex level's count
// and the edge level's past the kernel's per-type capacity, in a mesh
// file and in a part file. Both decoders must answer with an error
// naming the limit — the kernel panics when told to hold that many —
// and must do so from the count alone: the 1.9 GB of records that would
// carry the forged vertex count past the length guard are not needed to
// get there.
func TestDecodeRejectsCountsPastMaxSlots(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	var buf bytes.Buffer
	if err := Write(&buf, meshgen.Box3D(model, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	var part []byte
	if err := pcu.Run(1, func(ctx *pcu.Ctx) error {
		dm := partition.Adopt(ctx, model.Model, 3, meshgen.Box3D(model, 1, 1, 1), 1)
		var err error
		part, err = partition.EncodePart(dm.Parts[0])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, file := range []struct {
		data []byte
		head int
		mid  bool
	}{{buf.Bytes(), serialHead, false}, {part, partHead, true}} {
		sh := parseShipment(t, file.data, file.head, 3, file.mid)
		for _, at := range []int{sh.dirAt + 1, sh.recs[0][len(sh.recs[0])-1].end} {
			for _, n := range []uint32{mesh.MaxSlots + 1, 1<<32 - 1} {
				bad := append([]byte(nil), file.data...)
				le.PutUint32(bad[at:], n)
				bad = append(bad, make([]byte, 1<<16)...)
				var err error
				if file.mid {
					_, _, err = partition.DecodePart(bad, 0, 1, model.Model, 3)
				} else {
					_, err = Read(bytes.NewReader(bad), model.Model)
				}
				if err == nil || !strings.Contains(err.Error(), "mesh.MaxSlots") {
					t.Errorf("count %d at offset %d of a %d-byte header: returned %v, want an error naming mesh.MaxSlots", n, at, file.head, err)
				}
			}
		}
		if _, _, err := partition.DecodePart(part, 0, 1, model.Model, 3); err != nil {
			t.Fatal(err)
		}
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
