package meshio

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Where a file's shipment starts: after the magic and the dimension in
// a serial file; after the magic, the part id, the fresh-id counter and
// the shared and cell counts in a part file.
const (
	serialHead = 8 + 4
	partHead   = 8 + 4 + 8 + 4 + 4
)

// shipment is a file's records, parsed back for forging. Tag values
// are skipped, so the directory may hold scalar tags only.
type shipment struct {
	data  []byte
	dirAt int // the tag directory
	mid   bool
	recs  [4][]record
}

// record is one entity record and where it lies.
type record struct {
	at, end int
	t       mesh.Type
	gid     int64
	cls     gmi.Ref
	res     []int32 // residence, part files only
	down    []int32 // downward positions in the level below, nil for a vertex
	x       [3]float64
}

func parseShipment(t testing.TB, data []byte, at, dim int, mid bool) *shipment {
	t.Helper()
	s := &shipment{data: data, dirAt: at, mid: mid}
	r := pcu.NewReader(data[at:])
	for range r.Byte() {
		r.BytesNoCopy()
		if kind := ds.TagKind(r.Byte()); kind > ds.TagFloat {
			t.Fatalf("the shipment carries a %v tag", kind)
		}
		r.Int32()
	}
	for d := 0; d <= dim; d++ {
		for range r.Int32() {
			rc := record{at: len(data) - r.Remaining(), t: mesh.Type(r.Byte()), gid: r.Int64()}
			rc.cls = gmi.Ref{Dim: int8(r.Byte()) - 1, Tag: r.Int32()}
			if mid {
				rc.res = r.Int32s()
			}
			if d == 0 {
				rc.x = [3]float64{r.Float64(), r.Float64(), r.Float64()}
			} else {
				for range rc.t.DownCount() {
					rc.down = append(rc.down, r.Int32())
				}
			}
			for range r.Byte() {
				r.Byte()
				r.Int64()
			}
			rc.end = len(data) - r.Remaining()
			s.recs[d] = append(s.recs[d], rc)
		}
	}
	r.Done()
	return s
}

// bytes encodes rc as a shipment holds it, followed by tags: its tag
// count and entries, none if empty.
func (rc record) bytes(mid bool, tags []byte) []byte {
	var b pcu.Buffer
	b.Byte(byte(rc.t))
	b.Int64(rc.gid)
	b.Byte(byte(rc.cls.Dim + 1))
	b.Int32(rc.cls.Tag)
	if mid {
		b.Int32s(rc.res)
	}
	if rc.t == mesh.Vertex {
		for _, x := range rc.x {
			b.Float64(x)
		}
	} else {
		for _, at := range rc.down {
			b.Int32(at)
		}
	}
	if len(tags) == 0 {
		tags = []byte{0}
	}
	return append(b.Raw(), tags...)
}

// with returns the file with rc, tagged with tags, in place of the
// record it was parsed from.
func (s *shipment) with(rc record, tags ...byte) []byte {
	return slices.Concat(s.data[:rc.at], rc.bytes(s.mid, tags), s.data[rc.end:])
}

// withDirectory returns the file with a directory of the tags named in
// place of the empty one, each a (name, kind, size).
func (s *shipment) withDirectory(tags ...tagDecl) []byte {
	if s.data[s.dirAt] != 0 {
		panic("withDirectory on a tagged shipment")
	}
	var b pcu.Buffer
	b.Byte(byte(len(tags)))
	for _, tg := range tags {
		b.Bytes([]byte(tg.name))
		b.Byte(byte(tg.kind))
		b.Int32(int32(tg.size))
	}
	return slices.Concat(s.data[:s.dirAt], b.Raw(), s.data[s.dirAt+1:])
}

type tagDecl struct {
	name string
	kind ds.TagKind
	size int
}

// clone returns a copy of rc whose slices the caller may change.
func (rc record) clone() record {
	rc.res, rc.down = slices.Clone(rc.res), slices.Clone(rc.down)
	return rc
}

// forgery is one malformed input: how to make it from an untagged
// shipment of a tet mesh, and what the error must say.
type forgery struct {
	name, want string
	forge      func(s *shipment) []byte
	partOnly   bool // a header or residence forgery: part files only
}

// forgeries lists one case per way a file can be malformed.
func forgeries(t testing.TB) []forgery {
	// twoInOwn is the first record of a vertex on a two-part residence.
	twoInOwn := func(s *shipment) record {
		for _, rc := range s.recs[0] {
			if len(rc.res) == 2 {
				return rc.clone()
			}
		}
		t.Fatal("no vertex with a two-part residence")
		return record{}
	}
	return []forgery{
		{"unknown type", "Type(9) record", func(s *shipment) []byte {
			rc := s.recs[1][0].clone()
			rc.t = 9
			return s.with(rc)
		}, false},
		{"type of another level", "tri record in the dimension-1 level", func(s *shipment) []byte {
			rc := s.recs[1][0].clone()
			rc.t = mesh.Tri
			return s.with(rc)
		}, false},
		{"unstorable classification", "classification", func(s *shipment) []byte {
			rc := s.recs[0][0].clone()
			rc.cls = gmi.Ref{Dim: 8}
			return s.with(rc)
		}, false},
		{"down position past level", "names down position", func(s *shipment) []byte {
			rc := s.recs[2][0].clone()
			rc.down[0] = int32(len(s.recs[1]))
			return s.with(rc)
		}, false},
		{"negative down position", "names down position -1 of", func(s *shipment) []byte {
			rc := s.recs[2][0].clone()
			rc.down[0] = -1
			return s.with(rc)
		}, false},
		{"record cut in positions", "message underflow", func(s *shipment) []byte {
			rc := s.recs[2][0]
			return s.data[:rc.end-1-4*len(rc.down)+6] // one position and half of the next
		}, false},
		{"down types", "is a tri, want a quad", func(s *shipment) []byte {
			last := len(s.recs[3]) - 1
			rc := s.recs[3][last].clone()
			rc.t = mesh.Pyramid
			rc.down = []int32{0, 1, 2, 3, 4}
			return s.with(rc)
		}, false},
		{"repeated down", "lists", func(s *shipment) []byte {
			rc := s.recs[2][0].clone()
			rc.down[1] = rc.down[0]
			return s.with(rc)
		}, false},
		{"face edges not a cycle", "do not share a vertex", func(s *shipment) []byte {
			rc := s.recs[2][0].clone()
			rc.down = disjointEdges(t, s.recs[1])
			return s.with(rc)
		}, false},
		{"open region shell", "of its faces, want 2", func(s *shipment) []byte {
			rc := s.recs[3][0].clone()
			for f := range int32(len(s.recs[2])) {
				if !slices.Contains(rc.down, f) {
					rc.down[3] = f
					break
				}
			}
			return s.with(rc)
		}, false},
		{"negative gid", "a record of gid -5", func(s *shipment) []byte {
			rc := s.recs[1][0].clone()
			rc.gid = -5
			return s.with(rc)
		}, false},
		{"repeated gid", "is listed twice", func(s *shipment) []byte {
			rc := s.recs[0][1].clone()
			rc.gid = s.recs[0][0].gid
			return s.with(rc)
		}, false},
		{"tag index past the directory", "tag index 3 past", func(s *shipment) []byte {
			rc := s.recs[0][0]
			forged := &shipment{data: s.withDirectory(tagDecl{"x", ds.TagInt, 1}), mid: s.mid}
			shift := len(forged.data) - len(s.data)
			rc.at, rc.end = rc.at+shift, rc.end+shift
			return forged.with(rc, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0)
		}, false},
		{"slice value of the wrong length", "a value of 3 components", func(s *shipment) []byte {
			rc := s.recs[0][0]
			forged := &shipment{data: s.withDirectory(tagDecl{"v", ds.TagIntSlice, 2}), mid: s.mid}
			shift := len(forged.data) - len(s.data)
			rc.at, rc.end = rc.at+shift, rc.end+shift
			value := append([]byte{1, 0, 3, 0, 0, 0}, make([]byte, 24)...)
			return forged.with(rc, value...)
		}, false},
		{"duplicate tag name", `tag "x" is listed twice`, func(s *shipment) []byte {
			return s.withDirectory(tagDecl{"x", ds.TagInt, 1}, tagDecl{"x", ds.TagFloat, 1})
		}, false},
		{"unknown tag kind", "unknown kind 9", func(s *shipment) []byte {
			return s.withDirectory(tagDecl{"x", 9, 1})
		}, false},
		{"tag size above the limit", "has size 1025", func(s *shipment) []byte {
			return s.withDirectory(tagDecl{"x", ds.TagIntSlice, 1025})
		}, false},
		{"underflow", "message underflow", func(s *shipment) []byte {
			return s.data[:s.recs[0][2].at+5]
		}, false},
		{"bad length prefix", "corrupt length prefix", func(s *shipment) []byte {
			rc := s.recs[0][0]
			forged := &shipment{data: s.withDirectory(tagDecl{"v", ds.TagIntSlice, 3}), mid: s.mid}
			shift := len(forged.data) - len(s.data)
			rc.at, rc.end = rc.at+shift, rc.end+shift
			value := append([]byte{1, 0, 0, 0, 0, 0x40}, make([]byte, 24)...) // 1<<30 components
			return forged.with(rc, value...)
		}, false},
		{"trailing bytes", "3 undecoded trailing bytes", func(s *shipment) []byte {
			return append(slices.Clone(s.data), 1, 2, 3)
		}, false},
		{"residence not ascending", "corrupt residence [1 0]", func(s *shipment) []byte {
			rc := twoInOwn(s)
			slices.Reverse(rc.res)
			return s.with(rc)
		}, true},
		{"residence out of range", "corrupt residence [0 7]", func(s *shipment) []byte {
			rc := twoInOwn(s)
			rc.res[1] = 7
			return s.with(rc)
		}, true},
		{"residence without its part", "corrupt residence [1]", func(s *shipment) []byte {
			rc := s.recs[0][0].clone()
			rc.res = []int32{1}
			return s.with(rc)
		}, true},
		{"fresh-id counter", "fresh-id counter -1 below", func(s *shipment) []byte {
			data := slices.Clone(s.data)
			le.PutUint64(data[8+4:], ^uint64(0))
			return data
		}, true},
		{"shared count", "the header says", func(s *shipment) []byte {
			data := slices.Clone(s.data) // one shared entity more, of two cells
			le.PutUint32(data[partHead-8:], le.Uint32(data[partHead-8:])+1)
			le.PutUint32(data[partHead-4:], le.Uint32(data[partHead-4:])+2)
			return data
		}, true},
	}
}

// disjointEdges returns the positions of three distinct edges, the
// first two with no vertex in common.
func disjointEdges(t testing.TB, edges []record) []int32 {
	for i, a := range edges {
		for j, b := range edges[i+1:] {
			if !slices.Contains(b.down, a.down[0]) && !slices.Contains(b.down, a.down[1]) {
				for c := range len(edges) {
					if c != i && c != i+1+j {
						return []int32{int32(i), int32(i + 1 + j), int32(c)}
					}
				}
			}
		}
	}
	t.Fatal("no two edges without a common vertex")
	return nil
}

// forgedSerial returns each forgery of the serial file of a unit box,
// by name, with the file it was forged from.
func forgedSerial(t testing.TB) (good []byte, forged map[string][]byte) {
	var buf bytes.Buffer
	if err := Write(&buf, meshgen.Box3D(gmi.Box(1, 1, 1), 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	good, forged = buf.Bytes(), map[string][]byte{}
	for _, f := range forgeries(t) {
		if !f.partOnly {
			forged[f.name] = f.forge(parseShipment(t, good, serialHead, 3, false))
		}
	}
	return good, forged
}

// forgedPart returns each forgery of part 0's file of a 2×1×1 box split
// in two by x, by name, with the file it was forged from.
func forgedPart(t testing.TB) (good []byte, forged map[string][]byte) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := distributeBox(ctx)
		if ctx.Rank() == 0 {
			var err error
			good, err = partition.EncodePart(dm.Parts[0])
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	forged = map[string][]byte{}
	for _, f := range forgeries(t) {
		forged[f.name] = f.forge(parseShipment(t, good, partHead, 3, true))
	}
	return good, forged
}

// distributeBox splits a 2×1×1 box of 12 tets in two by x, untagged.
func distributeBox(ctx *pcu.Ctx) *partition.DMesh {
	model := gmi.Box(2, 1, 1)
	var serial *mesh.Mesh
	var assign []int32
	if ctx.Rank() == 0 {
		serial = meshgen.Box3D(model, 2, 1, 1)
		for el := range serial.Elements() {
			assign = append(assign, int32(serial.Centroid(el).X))
		}
	}
	dm, err := partition.Distribute(ctx, model.Model, 3, serial, assign, 1)
	if err != nil {
		panic(err)
	}
	return dm
}

// TestDecodeRejectsForgedInputs runs each forgery through the serial
// reader and through a checkpoint load on two ranks: every one must be
// an error naming what is wrong — on every rank, the same — and none a
// panic.
func TestDecodeRejectsForgedInputs(t *testing.T) {
	_, serial := forgedSerial(t)
	_, parts := forgedPart(t)
	for _, f := range forgeries(t) {
		t.Run(f.name, func(t *testing.T) {
			if !f.partOnly {
				if _, err := Read(bytes.NewReader(serial[f.name]), gmi.Box(1, 1, 1).Model); err == nil || !strings.Contains(err.Error(), f.want) {
					t.Errorf("serial file: err = %v, want one holding %q", err, f.want)
				}
			}
			dir := t.TempDir()
			if err := pcu.Run(2, func(ctx *pcu.Ctx) error {
				return SaveCheckpoint(dir, distributeBox(ctx), Cursor{})
			}); err != nil {
				t.Fatal(err)
			}
			forgePartFile(t, dir, 0, parts[f.name])
			var errs [2]error
			if err := pcu.Run(2, func(ctx *pcu.Ctx) error {
				_, _, errs[ctx.Rank()] = LoadCheckpoint(dir, ctx, gmi.Box(2, 1, 1).Model)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), f.want) {
					t.Errorf("part file, rank %d: err = %v, want one holding %q", r, err, f.want)
				}
			}
			if errs[0] != nil && errs[1] != nil && errs[0].Error() != errs[1].Error() {
				t.Errorf("the ranks disagree: %q and %q", errs[0], errs[1])
			}
		})
	}
}

// forgePartFile replaces the committed file of part pid in the
// checkpoint in dir with data, its size and CRC recorded as the
// manifest's, so that only the decoder stands between the data and
// the load.
func forgePartFile(t *testing.T, dir string, pid int32, data []byte) {
	t.Helper()
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := &man.Files[slices.IndexFunc(man.Files, func(f CheckpointFile) bool { return f.Part == pid })]
	f.Size, f.CRC = int64(len(data)), crc32.ChecksumIEEE(data)
	if err := os.WriteFile(filepath.Join(dir, f.Name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := commitManifest(dir, man); err != nil {
		t.Fatal(err)
	}
}

// TestTooManyTagsIsAnError: a mesh with 256 numeric tags, one more than
// a shipment's directory holds, is refused by Write, SaveFile and
// SaveCheckpoint with an error, not written as a file the reader then
// rejects, and not a panic.
func TestTooManyTagsIsAnError(t *testing.T) {
	tag256 := func(m *mesh.Mesh) {
		for i := range 256 {
			if _, err := m.Tags.Create(fmt.Sprintf("t%d", i), ds.TagFloat, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	const want = "partition: 256 tags travel with the entities, more than 255"
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 1, 1, 1)
	tag256(m)
	if err := Write(&bytes.Buffer{}, m); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Write: err = %v, want %q", err, want)
	}
	path := filepath.Join(t.TempDir(), "m.pumi")
	if err := SaveFile(path, m); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("SaveFile: err = %v, want %q", err, want)
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("SaveFile left a file behind")
	}
	dir := t.TempDir()
	var errs [2]error
	if err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := distributeBox(ctx)
		if ctx.Rank() == 1 {
			tag256(dm.Parts[0].M)
		}
		errs[ctx.Rank()] = SaveCheckpoint(dir, dm, Cursor{})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "rank 1: "+want) {
			t.Errorf("SaveCheckpoint, rank %d: err = %v, want rank 1's %q", r, err, want)
		}
	}
	if CheckpointExists(dir) {
		t.Error("a failed save committed a manifest")
	}
	// One tag fewer fits, and reads back.
	m = meshgen.Box3D(gmi.Box(1, 1, 1), 1, 1, 1)
	tag256(m)
	m.Tags.Destroy(m.Tags.Find("t0"))
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m2.Tags.Tags()); n != 255 {
		t.Errorf("%d tags read back, want 255", n)
	}
}
