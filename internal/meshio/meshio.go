// Package meshio serializes meshes and partition assignments to a
// compact binary format, so command-line tools can stage workflows
// (generate, partition, improve, adapt) the way the paper's tools pass
// meshes between steps. The format stores the full topology (downward
// adjacencies per dimension), coordinates, and classification; parallel
// state (remote copies) is not stored — a loaded mesh is a serial part,
// partitioned afresh.
package meshio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/vec"
)

const (
	magicV1 = "PUMIGO01" // topology only
	magicV2 = "PUMIGO02" // topology + numeric tag data (fields included)
)

// Write serializes a mesh.
func Write(w io.Writer, m *mesh.Mesh) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magicV2); err != nil {
		return err
	}
	wu32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	wu32(uint32(m.Dim()))

	// Vertices: assign sequential ids in iteration order; index maps a
	// vertex slot to its id.
	var index []uint32
	wu32(uint32(m.Count(0)))
	id := uint32(0)
	for v := range m.Iter(0) {
		for int(v.I) >= len(index) {
			index = append(index, 0)
		}
		index[v.I] = id
		id++
		p := m.Coord(v)
		binary.Write(bw, binary.LittleEndian, [3]float64{p.X, p.Y, p.Z})
		writeClassif(bw, m.Classification(v))
	}
	// Higher dimensions: entities as vertex tuples (set semantics are
	// recovered by BuildFromVerts on load; the canonical order is
	// preserved by storing Verts order).
	var verts []mesh.Ent
	for d := 1; d <= m.Dim(); d++ {
		wu32(uint32(m.Count(d)))
		for e := range m.Iter(d) {
			bw.WriteByte(byte(e.T))
			verts = m.VertsTo(e, verts[:0])
			wu32(uint32(len(verts)))
			for _, v := range verts {
				wu32(index[v.I])
			}
			writeClassif(bw, m.Classification(e))
		}
	}
	if err := writeTags(bw, m); err != nil {
		return err
	}
	return bw.Flush()
}

// Read deserializes a mesh against the given model (may be nil).
func Read(r io.Reader, model *gmi.Model) (*mesh.Mesh, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magicV1))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("meshio: reading header: %w", err)
	}
	version := 0
	switch string(head) {
	case magicV1:
		version = 1
	case magicV2:
		version = 2
	default:
		return nil, fmt.Errorf("meshio: bad magic %q", head)
	}
	var dim uint32
	if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
		return nil, err
	}
	if dim < 1 || dim > 3 {
		return nil, fmt.Errorf("meshio: bad dimension %d", dim)
	}
	m := mesh.New(model, int(dim))
	var nv uint32
	if err := binary.Read(br, binary.LittleEndian, &nv); err != nil {
		return nil, err
	}
	verts := make([]mesh.Ent, nv)
	for i := range verts {
		var p [3]float64
		if err := binary.Read(br, binary.LittleEndian, &p); err != nil {
			return nil, err
		}
		cls, err := readClassif(br)
		if err != nil {
			return nil, err
		}
		verts[i] = m.CreateVertex(cls, vec.V{X: p[0], Y: p[1], Z: p[2]})
	}
	var vsBuf [8]mesh.Ent
	for d := 1; d <= int(dim); d++ {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			tb, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			t := mesh.Type(tb)
			if t >= mesh.TypeCount || t.Dim() != d {
				return nil, fmt.Errorf("meshio: entity type %d in dimension %d section", tb, d)
			}
			var k uint32
			if err := binary.Read(br, binary.LittleEndian, &k); err != nil {
				return nil, err
			}
			if int(k) != t.VertCount() {
				return nil, fmt.Errorf("meshio: %v with %d vertices", t, k)
			}
			vs := vsBuf[:k]
			for j := range vs {
				var vi uint32
				if err := binary.Read(br, binary.LittleEndian, &vi); err != nil {
					return nil, err
				}
				if vi >= nv {
					return nil, fmt.Errorf("meshio: vertex index %d out of range", vi)
				}
				vs[j] = verts[vi]
			}
			cls, err := readClassif(br)
			if err != nil {
				return nil, err
			}
			e := m.BuildFromVerts(t, vs, cls)
			m.SetClassification(e, cls)
		}
	}
	if version >= 2 {
		if err := readTags(br, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func writeClassif(w io.Writer, c gmi.Ref) {
	binary.Write(w, binary.LittleEndian, int8(c.Dim))
	binary.Write(w, binary.LittleEndian, c.Tag)
}

func readClassif(r io.Reader) (gmi.Ref, error) {
	var d int8
	var tag int32
	if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
		return gmi.NoRef, err
	}
	if err := binary.Read(r, binary.LittleEndian, &tag); err != nil {
		return gmi.NoRef, err
	}
	return gmi.Ref{Dim: d, Tag: tag}, nil
}

// SaveFile writes a mesh to the named file.
func SaveFile(path string, m *mesh.Mesh) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Write(f, m); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a mesh from the named file.
func LoadFile(path string, model *gmi.Model) (*mesh.Mesh, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, model)
}

// WriteAssignment stores an element-to-part assignment aligned with the
// mesh's element iteration order.
func WriteAssignment(w io.Writer, parts []int32) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("PUMIPT01"); err != nil {
		return err
	}
	binary.Write(bw, binary.LittleEndian, uint32(len(parts)))
	for _, p := range parts {
		binary.Write(bw, binary.LittleEndian, p)
	}
	return bw.Flush()
}

// ReadAssignment loads an element-to-part assignment.
func ReadAssignment(r io.Reader) ([]int32, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 8)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, err
	}
	if string(head) != "PUMIPT01" {
		return nil, fmt.Errorf("meshio: bad assignment magic %q", head)
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	out := make([]int32, n)
	if err := binary.Read(br, binary.LittleEndian, &out); err != nil {
		return nil, err
	}
	// Reject corrupt part ids here, at the serial load boundary: a
	// negative id surviving to PlansFromAssignment would blow up deep
	// inside a collective migration instead of failing every rank with
	// a structured error.
	for i, p := range out {
		if p < 0 {
			return nil, fmt.Errorf("meshio: assignment entry %d has negative part id %d", i, p)
		}
	}
	return out, nil
}

// writeTags appends the numeric tag section: a tag directory followed,
// per dimension and per entity in iteration order, by that entity's
// tagged values. TagAny values are process-local and not serialized.
func writeTags(w *bufio.Writer, m *mesh.Mesh) error {
	var movable []*ds.Tag
	for _, t := range m.Tags.Tags() {
		switch t.Kind {
		case ds.TagInt, ds.TagFloat, ds.TagIntSlice, ds.TagFloatSlice, ds.TagBytes:
			movable = append(movable, t)
		}
	}
	binary.Write(w, binary.LittleEndian, uint32(len(movable)))
	for _, t := range movable {
		binary.Write(w, binary.LittleEndian, uint32(len(t.Name)))
		w.WriteString(t.Name)
		w.WriteByte(byte(t.Kind))
		binary.Write(w, binary.LittleEndian, uint32(t.Size))
	}
	// One entity's record is built in rec — presence count, then an
	// (index, value) entry per tag the entity carries — and written
	// whole, so each tag's presence is read once, by its getter.
	le := binary.LittleEndian
	var rec []byte
	for d := 0; d <= m.Dim(); d++ {
		for e := range m.Iter(d) {
			rec = append(rec[:0], 0)
			for ti, t := range movable {
				switch t.Kind {
				case ds.TagInt:
					v, ok := m.Tags.GetInt(t, e)
					if !ok {
						continue
					}
					rec = le.AppendUint64(append(rec, byte(ti)), uint64(v))
				case ds.TagFloat:
					v, ok := m.Tags.GetFloat(t, e)
					if !ok {
						continue
					}
					rec = le.AppendUint64(append(rec, byte(ti)), math.Float64bits(v))
				case ds.TagIntSlice:
					v, ok := m.Tags.GetInts(t, e)
					if !ok {
						continue
					}
					rec = append(rec, byte(ti))
					for _, x := range v {
						rec = le.AppendUint64(rec, uint64(x))
					}
				case ds.TagFloatSlice:
					v, ok := m.Tags.GetFloats(t, e)
					if !ok {
						continue
					}
					rec = append(rec, byte(ti))
					for _, x := range v {
						rec = le.AppendUint64(rec, math.Float64bits(x))
					}
				case ds.TagBytes:
					v, ok := m.Tags.GetBytes(t, e)
					if !ok {
						continue
					}
					rec = append(append(rec, byte(ti)), v...)
				}
				rec[0]++
			}
			w.Write(rec)
		}
	}
	return nil
}

// maxTagSize bounds the per-entity component count a file's tag
// directory may declare. Tag storage is sized from it (8·size bytes
// per entity slot), so it is checked before anything is allocated.
const maxTagSize = 1024

// readTags restores the tag section written by writeTags. Entity order
// matches the write order because BuildFromVerts created entities in
// file order.
func readTags(r *bufio.Reader, m *mesh.Mesh) error {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("meshio: tag directory: %w", err)
	}
	if n > 255 {
		return fmt.Errorf("meshio: %d tags", n)
	}
	tags := make([]*ds.Tag, n)
	for i := range tags {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		if nameLen > 4096 {
			return fmt.Errorf("meshio: tag name of %d bytes", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return err
		}
		kindB, err := r.ReadByte()
		if err != nil {
			return err
		}
		var size uint32
		if err := binary.Read(r, binary.LittleEndian, &size); err != nil {
			return err
		}
		kind := ds.TagKind(kindB)
		if kind > ds.TagBytes {
			return fmt.Errorf("meshio: tag %q has unknown kind %d", name, kindB)
		}
		if size > maxTagSize {
			return fmt.Errorf("meshio: tag %q has size %d, above the limit of %d", name, size, maxTagSize)
		}
		tag := m.Tags.Find(string(name))
		if tag == nil {
			tag, err = m.Tags.Create(string(name), kind, int(size))
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
	for d := 0; d <= m.Dim(); d++ {
		for e := range m.Iter(d) {
			present, err := r.ReadByte()
			if err != nil {
				return err
			}
			for k := 0; k < int(present); k++ {
				ti, err := r.ReadByte()
				if err != nil {
					return err
				}
				if int(ti) >= len(tags) {
					return fmt.Errorf("meshio: tag index %d out of range", ti)
				}
				tag := tags[ti]
				switch tag.Kind {
				case ds.TagInt:
					var v int64
					if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
						return err
					}
					m.Tags.SetInt(tag, e, v)
				case ds.TagFloat:
					var v float64
					if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
						return err
					}
					m.Tags.SetFloat(tag, e, v)
				case ds.TagIntSlice:
					v := make([]int64, tag.Size)
					if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
						return err
					}
					m.Tags.SetInts(tag, e, v)
				case ds.TagFloatSlice:
					v := make([]float64, tag.Size)
					if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
						return err
					}
					m.Tags.SetFloats(tag, e, v)
				case ds.TagBytes:
					v := make([]byte, tag.Size)
					if _, err := io.ReadFull(r, v); err != nil {
						return err
					}
					m.Tags.SetBytes(tag, e, v)
				}
			}
		}
	}
	return nil
}
