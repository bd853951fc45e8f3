package partition

import (
	"fmt"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Tag data travels with entities: migration and ghosting pack the
// sender's tag values for every transferred entity and recreate them on
// the receiver (PUMI semantics — a copy carries its tag data). Only
// scalar and slice numeric tags move; TagAny values are host-local.

// writeTagTable encodes the sender part's movable tag directory.
func writeTagTable(b *pcu.Buffer, m *mesh.Mesh) []*ds.Tag {
	var movable []*ds.Tag
	for _, t := range m.Tags.Tags() {
		switch t.Kind {
		case ds.TagInt, ds.TagFloat, ds.TagIntSlice, ds.TagFloatSlice, ds.TagBytes:
			movable = append(movable, t)
		}
	}
	if len(movable) > 255 {
		panic("partition: more than 255 movable tags")
	}
	b.Byte(byte(len(movable)))
	for _, t := range movable {
		b.Bytes([]byte(t.Name))
		b.Byte(byte(t.Kind))
		b.Int32(int32(t.Size))
	}
	return movable
}

// tagSlot pairs a wire tag layout with the locally reconciled tag
// (nil when a same-named tag with a different layout exists locally;
// such values decode but drop).
type tagSlot struct {
	tag  *ds.Tag
	kind ds.TagKind
	size int
}

// readTagTable decodes a tag directory, creating missing tags on the
// receiving mesh.
func readTagTable(r *pcu.Reader, m *mesh.Mesh) []tagSlot {
	n := int(r.Byte())
	out := make([]tagSlot, n)
	for i := 0; i < n; i++ {
		name := string(r.BytesNoCopy())
		kind := ds.TagKind(r.Byte())
		size := int(r.Int32())
		tag := m.Tags.Find(name)
		if tag == nil {
			var err error
			tag, err = m.Tags.Create(name, kind, size)
			if err != nil {
				panic(fmt.Sprintf("partition: recreating tag %q: %v", name, err))
			}
		}
		if tag.Kind != kind || tag.Size != size {
			tag = nil
		}
		out[i] = tagSlot{tag: tag, kind: kind, size: size}
	}
	return out
}

// writeEntityTags encodes e's values for the movable tags: the count of
// tags e carries, then an (index, value) entry for each.
func writeEntityTags(b *pcu.Buffer, m *mesh.Mesh, movable []*ds.Tag, e mesh.Ent) {
	present := 0
	for _, t := range movable {
		if m.Tags.Has(t, e) {
			present++
		}
	}
	b.Byte(byte(present))
	if present == 0 {
		return
	}
	for i, t := range movable {
		switch t.Kind {
		case ds.TagInt:
			if v, ok := m.Tags.GetInt(t, e); ok {
				b.Byte(byte(i))
				b.Int64(v)
			}
		case ds.TagFloat:
			if v, ok := m.Tags.GetFloat(t, e); ok {
				b.Byte(byte(i))
				b.Float64(v)
			}
		case ds.TagIntSlice:
			if v, ok := m.Tags.GetInts(t, e); ok {
				b.Byte(byte(i))
				b.Int64s(v)
			}
		case ds.TagFloatSlice:
			if v, ok := m.Tags.GetFloats(t, e); ok {
				b.Byte(byte(i))
				b.Float64s(v)
			}
		case ds.TagBytes:
			if v, ok := m.Tags.GetBytes(t, e); ok {
				b.Byte(byte(i))
				b.Bytes(v)
			}
		}
	}
}

// applyEntityTags decodes and attaches tag values to e. Entries whose
// tag could not be reconciled are consumed and dropped.
func applyEntityTags(r *pcu.Reader, m *mesh.Mesh, table []tagSlot, e mesh.Ent, apply bool) {
	n := int(r.Byte())
	for k := 0; k < n; k++ {
		i := int(r.Byte())
		tag := table[i].tag
		if !apply {
			tag = nil
		}
		kind := table[i].kind
		switch kind {
		case ds.TagInt:
			v := r.Int64()
			if tag != nil {
				m.Tags.SetInt(tag, e, v)
			}
		case ds.TagFloat:
			v := r.Float64()
			if tag != nil {
				m.Tags.SetFloat(tag, e, v)
			}
		case ds.TagIntSlice:
			vals := r.Int64s()
			if tag != nil {
				m.Tags.SetInts(tag, e, vals)
			}
		case ds.TagFloatSlice:
			v := r.Float64s()
			if tag != nil {
				m.Tags.SetFloats(tag, e, v)
			}
		case ds.TagBytes:
			// Aliasing is safe here: SetBytes copies before the message
			// can be released.
			v := r.BytesNoCopy()
			if tag != nil {
				m.Tags.SetBytes(tag, e, v)
			}
		}
	}
}
