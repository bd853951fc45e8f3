// Package meshio serializes meshes and partition assignments to a
// compact binary format, so command-line tools can stage workflows
// (generate, partition, improve, adapt) the way the paper's tools pass
// meshes between steps. The format stores the full topology (downward
// adjacencies per dimension), coordinates, and classification; parallel
// state (remote copies) is not stored — a loaded mesh is a serial part,
// partitioned afresh.
package meshio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/vec"
)

const (
	magicV1 = "PUMIGO01" // topology only
	magicV2 = "PUMIGO02" // topology + numeric tag data (fields included)
)

// Every format here is little-endian. Encoders append to a byte slice
// with le.AppendUint32 / AppendUint64; decoders consume one with dec.
var le = binary.LittleEndian

var errTruncated = errors.New("meshio: truncated input")

// dec consumes little-endian values off the front of a byte slice. A
// read past the end latches err and yields zeros from then on, so a
// decoder checks err once per record rather than once per field.
type dec struct {
	b   []byte
	err error
}

var zeros [8]byte

// bytes consumes the next n bytes; the result aliases the input. A
// short read returns zeros when n <= 8, else nil.
func (d *dec) bytes(n int) []byte {
	if d.err != nil || n > len(d.b) {
		d.err = errTruncated
		return zeros[:min(n, 8)]
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) u8() byte    { return d.bytes(1)[0] }
func (d *dec) u32() uint32 { return le.Uint32(d.bytes(4)) }
func (d *dec) u64() uint64 { return le.Uint64(d.bytes(8)) }

// Write serializes a mesh.
func Write(w io.Writer, m *mesh.Mesh) error {
	_, err := w.Write(appendMesh(nil, m))
	return err
}

// appendMesh appends m's serialization to b.
func appendMesh(b []byte, m *mesh.Mesh) []byte {
	b = append(b, magicV2...)
	b = le.AppendUint32(b, uint32(m.Dim()))

	// Vertices: assign sequential ids in iteration order; index maps a
	// vertex slot to its id.
	var index []uint32
	b = le.AppendUint32(b, uint32(m.Count(0)))
	id := uint32(0)
	for v := range m.Iter(0) {
		for int(v.I) >= len(index) {
			index = append(index, 0)
		}
		index[v.I] = id
		id++
		p := m.Coord(v)
		b = le.AppendUint64(b, math.Float64bits(p.X))
		b = le.AppendUint64(b, math.Float64bits(p.Y))
		b = le.AppendUint64(b, math.Float64bits(p.Z))
		b = appendClassif(b, m.Classification(v))
	}
	// Higher dimensions: entities as vertex tuples (set semantics are
	// recovered by BuildFromVerts on load; the canonical order is
	// preserved by storing Verts order).
	var verts []mesh.Ent
	for d := 1; d <= m.Dim(); d++ {
		b = le.AppendUint32(b, uint32(m.Count(d)))
		for e := range m.Iter(d) {
			b = append(b, byte(e.T))
			verts = m.VertsTo(e, verts[:0])
			b = le.AppendUint32(b, uint32(len(verts)))
			for _, v := range verts {
				b = le.AppendUint32(b, index[v.I])
			}
			b = appendClassif(b, m.Classification(e))
		}
	}
	return appendTags(b, m)
}

// Read deserializes a mesh against the given model (may be nil).
func Read(r io.Reader, model *gmi.Model) (*mesh.Mesh, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("meshio: reading mesh: %w", err)
	}
	return decodeMesh(data, model)
}

// Bytes one vertex and the smallest higher entity (an edge) occupy: a
// count field claiming more records than the input could hold is
// rejected before anything is sized from it.
const (
	vertexBytes    = 3*8 + 5
	minEntityBytes = 1 + 4 + 2*4 + 5
)

// checkCount rejects a dimension's section count past the kernel's
// per-type capacity: Reserve and the creations behind it would panic on
// it.
func checkCount(n uint32, dim int) error {
	if n > mesh.MaxSlots {
		return fmt.Errorf("meshio: %d entities of dimension %d exceed mesh.MaxSlots = %d", n, dim, mesh.MaxSlots)
	}
	return nil
}

// decodeMesh is Read over bytes already in memory.
func decodeMesh(data []byte, model *gmi.Model) (*mesh.Mesh, error) {
	d := &dec{b: data}
	version := 0
	switch head := d.bytes(len(magicV1)); string(head) {
	case magicV1:
		version = 1
	case magicV2:
		version = 2
	default:
		if d.err != nil {
			return nil, fmt.Errorf("meshio: reading header: %w", d.err)
		}
		return nil, fmt.Errorf("meshio: bad magic %q", head)
	}
	dim := d.u32()
	nv := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if dim < 1 || dim > 3 {
		return nil, fmt.Errorf("meshio: bad dimension %d", dim)
	}
	if err := checkCount(nv, 0); err != nil {
		return nil, err
	}
	if int64(nv)*vertexBytes > int64(len(d.b)) {
		return nil, errTruncated
	}
	m := mesh.New(model, int(dim))
	m.Reserve(mesh.Vertex, int(nv))
	verts := make([]mesh.Ent, nv)
	for i := range verts {
		x, y, z := d.u64(), d.u64(), d.u64()
		cls := readClassif(d)
		verts[i] = m.CreateVertex(cls, vec.V{
			X: math.Float64frombits(x), Y: math.Float64frombits(y), Z: math.Float64frombits(z)})
	}
	var vsBuf [8]mesh.Ent
	for dd := 1; dd <= int(dim); dd++ {
		n := d.u32()
		if err := checkCount(n, dd); err != nil {
			return nil, err
		}
		if int64(n)*minEntityBytes > int64(len(d.b)) {
			return nil, errTruncated
		}
		reserved := mesh.TypeCount
		for i := uint32(0); i < n; i++ {
			tb := d.u8()
			k := d.u32()
			if d.err != nil {
				return nil, d.err
			}
			t := mesh.Type(tb)
			if t >= mesh.TypeCount || t.Dim() != dd {
				return nil, fmt.Errorf("meshio: entity type %d in dimension %d section", tb, dd)
			}
			if t != reserved {
				// The rest of the section; the bytes left bound n above.
				m.Reserve(t, int(n-i))
				reserved = t
			}
			if int(k) != t.VertCount() {
				return nil, fmt.Errorf("meshio: %v with %d vertices", t, k)
			}
			vs := vsBuf[:k]
			for j := range vs {
				vi := d.u32()
				if vi >= nv {
					return nil, fmt.Errorf("meshio: vertex index %d out of range", vi)
				}
				vs[j] = verts[vi]
				if slices.Contains(vs[:j], vs[j]) {
					return nil, fmt.Errorf("meshio: %v lists vertex %d twice", t, vi)
				}
			}
			cls := readClassif(d)
			if d.err != nil {
				return nil, d.err
			}
			e := m.BuildFromVerts(t, vs, cls)
			m.SetClassification(e, cls)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if version >= 2 {
		if err := readTags(d, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func appendClassif(b []byte, c gmi.Ref) []byte {
	return le.AppendUint32(append(b, byte(c.Dim)), uint32(c.Tag))
}

func readClassif(d *dec) gmi.Ref {
	return gmi.Ref{Dim: int8(d.u8()), Tag: int32(d.u32())}
}

// SaveFile writes a mesh to the named file.
func SaveFile(path string, m *mesh.Mesh) error {
	return os.WriteFile(path, appendMesh(nil, m), 0o666)
}

// LoadFile reads a mesh from the named file.
func LoadFile(path string, model *gmi.Model) (*mesh.Mesh, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeMesh(data, model)
}

// WriteAssignment stores an element-to-part assignment aligned with the
// mesh's element iteration order.
func WriteAssignment(w io.Writer, parts []int32) error {
	b := le.AppendUint32([]byte("PUMIPT01"), uint32(len(parts)))
	for _, p := range parts {
		b = le.AppendUint32(b, uint32(p))
	}
	_, err := w.Write(b)
	return err
}

// ReadAssignment loads an element-to-part assignment.
func ReadAssignment(r io.Reader) ([]int32, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	d := &dec{b: data}
	if head := d.bytes(8); string(head) != "PUMIPT01" {
		if d.err != nil {
			return nil, d.err
		}
		return nil, fmt.Errorf("meshio: bad assignment magic %q", head)
	}
	n := d.u32()
	// The count must account for every byte left: WriteAssignment writes
	// nothing after the entries, so extra bytes mean a damaged file.
	switch extra := int64(len(d.b)) - int64(n)*4; {
	case d.err != nil || extra < 0:
		return nil, errTruncated
	case extra > 0:
		return nil, fmt.Errorf("meshio: %d bytes after the %d assignment entries", extra, n)
	}
	out := make([]int32, n)
	// Reject corrupt part ids here, at the serial load boundary: a
	// negative id surviving to PlansFromAssignment would blow up deep
	// inside a collective migration instead of failing every rank with
	// a structured error.
	for i := range out {
		out[i] = int32(d.u32())
		if out[i] < 0 {
			return nil, fmt.Errorf("meshio: assignment entry %d has negative part id %d", i, out[i])
		}
	}
	return out, d.err
}

// appendTags appends the numeric tag section: a tag directory followed,
// per dimension and per entity in iteration order, by that entity's
// tagged values. TagAny values are process-local and not serialized.
func appendTags(b []byte, m *mesh.Mesh) []byte {
	var movable []*ds.Tag
	for _, t := range m.Tags.Tags() {
		switch t.Kind {
		case ds.TagInt, ds.TagFloat, ds.TagIntSlice, ds.TagFloatSlice, ds.TagBytes:
			movable = append(movable, t)
		}
	}
	b = le.AppendUint32(b, uint32(len(movable)))
	for _, t := range movable {
		b = le.AppendUint32(b, uint32(len(t.Name)))
		b = append(b, t.Name...)
		b = append(b, byte(t.Kind))
		b = le.AppendUint32(b, uint32(t.Size))
	}
	// One entity's record is a presence count, then an (index, value)
	// entry per tag the entity carries; the count byte is patched as
	// entries are appended, so each tag's presence is read once, by its
	// getter.
	for d := 0; d <= m.Dim(); d++ {
		for e := range m.Iter(d) {
			count := len(b)
			b = append(b, 0)
			for ti, t := range movable {
				switch t.Kind {
				case ds.TagInt:
					v, ok := m.Tags.GetInt(t, e)
					if !ok {
						continue
					}
					b = le.AppendUint64(append(b, byte(ti)), uint64(v))
				case ds.TagFloat:
					v, ok := m.Tags.GetFloat(t, e)
					if !ok {
						continue
					}
					b = le.AppendUint64(append(b, byte(ti)), math.Float64bits(v))
				case ds.TagIntSlice:
					v, ok := m.Tags.GetInts(t, e)
					if !ok {
						continue
					}
					b = append(b, byte(ti))
					for _, x := range v {
						b = le.AppendUint64(b, uint64(x))
					}
				case ds.TagFloatSlice:
					v, ok := m.Tags.GetFloats(t, e)
					if !ok {
						continue
					}
					b = append(b, byte(ti))
					for _, x := range v {
						b = le.AppendUint64(b, math.Float64bits(x))
					}
				case ds.TagBytes:
					v, ok := m.Tags.GetBytes(t, e)
					if !ok {
						continue
					}
					b = append(append(b, byte(ti)), v...)
				}
				b[count]++
			}
		}
	}
	return b
}

// maxTagSize bounds the per-entity component count a file's tag
// directory may declare. Tag storage is sized from it (8·size bytes
// per entity slot), so it is checked before anything is allocated.
const maxTagSize = 1024

// readTags restores the tag section written by appendTags. Entity order
// matches the write order because BuildFromVerts created entities in
// file order.
func readTags(d *dec, m *mesh.Mesh) error {
	n := d.u32()
	if d.err != nil {
		return fmt.Errorf("meshio: tag directory: %w", d.err)
	}
	if n > 255 {
		return fmt.Errorf("meshio: %d tags", n)
	}
	tags := make([]*ds.Tag, n)
	for i := range tags {
		nameLen := d.u32()
		if nameLen > 4096 {
			return fmt.Errorf("meshio: tag name of %d bytes", nameLen)
		}
		name := string(d.bytes(int(nameLen)))
		kind := ds.TagKind(d.u8())
		size := d.u32()
		if d.err != nil {
			return d.err
		}
		if kind > ds.TagBytes {
			return fmt.Errorf("meshio: tag %q has unknown kind %d", name, kind)
		}
		if size > maxTagSize {
			return fmt.Errorf("meshio: tag %q has size %d, above the limit of %d", name, size, maxTagSize)
		}
		tag := m.Tags.Find(name)
		if tag == nil {
			var err error
			tag, err = m.Tags.Create(name, kind, int(size))
			if err != nil {
				return fmt.Errorf("meshio: recreating tag %q: %w", name, err)
			}
		}
		// The values below are decoded with the tag's layout, so the
		// file's must be the same one.
		if tag.Kind != kind || tag.Size != int(size) {
			return fmt.Errorf("meshio: tag %q is %v×%d in the file but %v×%d on the mesh",
				name, kind, size, tag.Kind, tag.Size)
		}
		tags[i] = tag
	}
	var ints []int64 // slice-tag decode scratch; Set* copies
	var floats []float64
	for dd := 0; dd <= m.Dim(); dd++ {
		for e := range m.Iter(dd) {
			present := d.u8()
			for k := 0; k < int(present); k++ {
				ti := d.u8()
				if d.err != nil {
					return d.err
				}
				if int(ti) >= len(tags) {
					return fmt.Errorf("meshio: tag index %d out of range", ti)
				}
				tag := tags[ti]
				raw := d.bytes(tagBytes(tag))
				if d.err != nil {
					return d.err
				}
				switch tag.Kind {
				case ds.TagInt:
					m.Tags.SetInt(tag, e, int64(le.Uint64(raw)))
				case ds.TagFloat:
					m.Tags.SetFloat(tag, e, math.Float64frombits(le.Uint64(raw)))
				case ds.TagIntSlice:
					ints = ints[:0]
					for ; len(raw) > 0; raw = raw[8:] {
						ints = append(ints, int64(le.Uint64(raw)))
					}
					m.Tags.SetInts(tag, e, ints)
				case ds.TagFloatSlice:
					floats = floats[:0]
					for ; len(raw) > 0; raw = raw[8:] {
						floats = append(floats, math.Float64frombits(le.Uint64(raw)))
					}
					m.Tags.SetFloats(tag, e, floats)
				case ds.TagBytes:
					m.Tags.SetBytes(tag, e, raw)
				}
			}
			if d.err != nil {
				return d.err
			}
		}
	}
	return nil
}

// tagBytes is the encoded size of one value of tag.
func tagBytes(tag *ds.Tag) int {
	switch tag.Kind {
	case ds.TagInt, ds.TagFloat:
		return 8
	case ds.TagBytes:
		return tag.Size
	}
	return 8 * tag.Size
}
