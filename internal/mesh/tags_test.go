package mesh_test

import (
	"slices"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/vec"
)

// BenchmarkTagFloat is one get+set of a float tag on every tet of a
// 6000-tet box: the per-entity cost a solver step pays.
func BenchmarkTagFloat(b *testing.B) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 10, 10, 10)
	tag, err := m.Tags.Create("u", ds.TagFloat, 0)
	if err != nil {
		b.Fatal(err)
	}
	var tets []mesh.Ent
	for e := range m.IterType(mesh.Tet) {
		tets = append(tets, e)
		m.Tags.SetFloat(tag, e, float64(e.I))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range tets {
			v, _ := m.Tags.GetFloat(tag, e)
			m.Tags.SetFloat(tag, e, v+1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tets)), "ns/ent")
}

// everyKind creates one tag of each kind on m and returns setters that
// tag an entity under all of them.
func everyKind(t *testing.T, m *mesh.Mesh) (tags []*ds.Tag, tagAll func(mesh.Ent)) {
	t.Helper()
	for _, c := range []struct {
		name string
		kind ds.TagKind
		size int
	}{
		{"i", ds.TagInt, 0}, {"f", ds.TagFloat, 0}, {"is", ds.TagIntSlice, 2},
		{"fs", ds.TagFloatSlice, 3}, {"b", ds.TagBytes, 4}, {"a", ds.TagAny, 0},
	} {
		tag, err := m.Tags.Create(c.name, c.kind, c.size)
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, tag)
	}
	return tags, func(e mesh.Ent) {
		x := int64(e.I)
		m.Tags.SetInt(tags[0], e, x)
		m.Tags.SetFloat(tags[1], e, float64(x))
		m.Tags.SetInts(tags[2], e, []int64{x, -x})
		m.Tags.SetFloats(tags[3], e, []float64{float64(x), 1, 2})
		m.Tags.SetBytes(tags[4], e, []byte{byte(x), 1, 2, 3})
		m.Tags.SetAny(tags[5], e, e)
	}
}

// TestTagSlotReuseReadsUntagged: an entity created in the slot of a
// destroyed, tagged one carries nothing under any kind, and the counts
// follow.
func TestTagSlotReuseReadsUntagged(t *testing.T) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	tags, tagAll := everyKind(t, m)
	for e := range m.IterType(mesh.Tet) {
		tagAll(e)
	}
	nTets := m.CountType(mesh.Tet)
	var victim mesh.Ent
	for e := range m.IterType(mesh.Tet) {
		victim = e
		break
	}
	verts, c := m.VertsTo(victim, nil), m.Classification(victim)
	m.Destroy(victim)
	for _, tag := range tags {
		if got := m.Tags.CountTagged(tag); got != nTets-1 {
			t.Errorf("%s: %d tagged after destroy, want %d", tag.Name, got, nTets-1)
		}
	}
	if again := m.BuildFromVerts(mesh.Tet, verts, c); again != victim {
		t.Fatalf("rebuilt tet landed in %v, want the freed slot %v", again, victim)
	}
	for _, tag := range tags {
		if m.Tags.Has(tag, victim) {
			t.Errorf("%s: reused slot reads tagged", tag.Name)
		}
	}
	if _, ok := m.Tags.GetFloats(tags[3], victim); ok {
		t.Error("GetFloats on the reused slot reports a value")
	}
	if v, ok := m.Tags.GetAny(tags[5], victim); ok || v != nil {
		t.Errorf("GetAny on the reused slot = %v, %v", v, ok)
	}
	tagAll(victim)
	for _, tag := range tags {
		if got := m.Tags.CountTagged(tag); got != nTets {
			t.Errorf("%s: %d tagged after retagging, want %d", tag.Name, got, nTets)
		}
	}
}

// TestTagColumnGrowsWithMesh: entities created after a column exists
// extend it; values and presence written before the growth survive it,
// and the new entities start untagged.
func TestTagColumnGrowsWithMesh(t *testing.T) {
	m := mesh.New(nil, 3)
	tags, tagAll := everyKind(t, m)
	const n = 1000 // many 64-slot presence words and several reallocations
	var vs []mesh.Ent
	for i := 0; i < n; i++ {
		v := m.CreateVertex(gmi.NoRef, vec.V{X: float64(i)})
		vs = append(vs, v)
		for _, tag := range tags {
			if m.Tags.Has(tag, v) {
				t.Fatalf("%s: fresh vertex %v reads tagged", tag.Name, v)
			}
		}
		if i%3 != 0 {
			tagAll(v)
		}
	}
	for i, v := range vs {
		x := int64(v.I)
		iv, iok := m.Tags.GetInt(tags[0], v)
		fs, fsok := m.Tags.GetFloats(tags[3], v)
		b, bok := m.Tags.GetBytes(tags[4], v)
		a, aok := m.Tags.GetAny(tags[5], v)
		if want := i%3 != 0; iok != want || fsok != want || bok != want || aok != want {
			t.Fatalf("vertex %d: presence %v %v %v %v, want %v", i, iok, fsok, bok, aok, want)
		} else if !want {
			continue
		}
		if iv != x || !slices.Equal(fs, []float64{float64(x), 1, 2}) || !slices.Equal(b, []byte{byte(x), 1, 2, 3}) || a != v {
			t.Fatalf("vertex %d: values %v %v %v %v did not survive growth", i, iv, fs, b, a)
		}
	}
	if got, want := m.Tags.CountTagged(tags[2]), n-(n+2)/3; got != want {
		t.Errorf("CountTagged = %d, want %d", got, want)
	}
}

// TestTagAccessZeroAlloc pins the per-entity tag operations a solver
// loop runs.
func TestTagAccessZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	tags, tagAll := everyKind(t, m)
	var e mesh.Ent
	for e = range m.IterType(mesh.Tet) {
		tagAll(e)
	}
	f, fs := tags[1], tags[3]
	vals := []float64{4, 5, 6}
	sink := 0.0
	for name, fn := range map[string]func(){
		"SetFloat":  func() { m.Tags.SetFloat(f, e, 3) },
		"GetFloat":  func() { v, _ := m.Tags.GetFloat(f, e); sink += v },
		"SetFloats": func() { m.Tags.SetFloats(fs, e, vals) },
		"GetFloats": func() { v, _ := m.Tags.GetFloats(fs, e); sink += v[0] },
		"Has":       func() { _ = m.Tags.Has(fs, e) },
	} {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
	_ = sink
}
