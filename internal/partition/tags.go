package partition

import (
	"fmt"
	"slices"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Tag data travels with entities: migration and ghosting pack the
// sender's tag values for every transferred entity and recreate them on
// the receiver (PUMI semantics — a copy carries its tag data). Only
// scalar and slice numeric tags move; TagAny values are host-local.

// maxTagSize bounds a tag's components per entity. A receiver sizes a
// tag's storage from the directory (8·size bytes per entity slot), so
// it refuses a larger one before creating anything, and a sender
// refuses to pack one.
const maxTagSize = 1024

// movableTags returns the part's tags whose values travel with its
// entities, in directory order. A directory the format cannot carry —
// more than 255 tags, or one above maxTagSize — is an error.
func movableTags(m *mesh.Mesh) ([]*ds.Tag, error) {
	var movable []*ds.Tag
	for _, t := range m.Tags.Tags() {
		if t.Kind == ds.TagAny {
			continue
		}
		if t.Size > maxTagSize {
			return nil, fmt.Errorf("partition: tag %q has %d components, above the limit of %d", t.Name, t.Size, maxTagSize)
		}
		movable = append(movable, t)
	}
	if len(movable) > 255 {
		return nil, fmt.Errorf("partition: %d tags travel with the entities, more than 255", len(movable))
	}
	return movable, nil
}

// writeTagTable encodes the sender part's movable tag directory.
func writeTagTable(b *pcu.Buffer, movable []*ds.Tag) {
	b.Byte(byte(len(movable)))
	for _, t := range movable {
		b.Bytes([]byte(t.Name))
		b.Byte(byte(t.Kind))
		b.Int32(int32(t.Size))
	}
}

// tagTableBytes is the size of writeTagTable's directory.
func tagTableBytes(movable []*ds.Tag) int {
	n := 1
	for _, t := range movable {
		n += 4 + len(t.Name) + 1 + 4
	}
	return n
}

// tagSlot pairs a wire tag layout with the locally reconciled tag
// (nil when a same-named tag with a different layout exists locally;
// such values decode but drop).
type tagSlot struct {
	tag  *ds.Tag
	name string
	kind ds.TagKind
	size int
}

// readTagTable decodes a tag directory, creating missing tags on the
// receiving mesh. An unknown kind, a size outside the kind's range or a
// name listed twice is a recoverable failure (localFail).
func readTagTable(r *pcu.Reader, m *mesh.Mesh) []tagSlot {
	n := int(r.Byte())
	out := make([]tagSlot, n)
	for i := 0; i < n; i++ {
		name := string(r.BytesNoCopy())
		kind := ds.TagKind(r.Byte())
		size := int(r.Int32())
		switch {
		case kind >= ds.TagAny:
			localFail("partition: tag %q has unknown kind %d", name, kind)
		case size < 1 || size > maxTagSize || size > 1 && kind < ds.TagIntSlice:
			localFail("partition: tag %q of kind %v has size %d", name, kind, size)
		case slices.ContainsFunc(out[:i], func(s tagSlot) bool { return s.name == name }):
			localFail("partition: tag %q is listed twice", name)
		}
		tag := m.Tags.Find(name)
		if tag == nil {
			var err error
			if tag, err = m.Tags.Create(name, kind, size); err != nil {
				localFail("partition: recreating tag %q: %w", name, err)
			}
		}
		if tag.Kind != kind || tag.Size != size {
			tag = nil
		}
		out[i] = tagSlot{tag: tag, name: name, kind: kind, size: size}
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

// tagValueBytes is the size of the entries writeEntityTags packs for e
// after its count byte: an index and a value per tag e carries.
func tagValueBytes(m *mesh.Mesh, movable []*ds.Tag, e mesh.Ent) int {
	n := 0
	for _, t := range movable {
		if !m.Tags.Has(t, e) {
			continue
		}
		switch t.Kind {
		case ds.TagInt, ds.TagFloat:
			n += 1 + 8
		case ds.TagIntSlice, ds.TagFloatSlice:
			n += 1 + 4 + 8*t.Size
		case ds.TagBytes:
			n += 1 + 4 + t.Size
		}
	}
	return n
}

// applyEntityTags decodes and attaches tag values to e. Entries whose
// tag could not be reconciled are consumed and dropped; an index past
// the directory or a value of the wrong length is a recoverable failure.
func applyEntityTags(r *pcu.Reader, m *mesh.Mesh, table []tagSlot, e mesh.Ent, apply bool) {
	n := int(r.Byte())
	for k := 0; k < n; k++ {
		i := int(r.Byte())
		if i >= len(table) {
			localFail("partition: tag index %d past the directory's %d", i, len(table))
		}
		slot := &table[i]
		tag := slot.tag
		if !apply {
			tag = nil
		}
		size := slot.size // the length a slice value must have
		switch slot.kind {
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
			if size = len(vals); size == slot.size && tag != nil {
				m.Tags.SetInts(tag, e, vals)
			}
		case ds.TagFloatSlice:
			v := r.Float64s()
			if size = len(v); size == slot.size && tag != nil {
				m.Tags.SetFloats(tag, e, v)
			}
		case ds.TagBytes:
			// Aliasing is safe here: SetBytes copies before the message
			// can be released.
			v := r.BytesNoCopy()
			if size = len(v); size == slot.size && tag != nil {
				m.Tags.SetBytes(tag, e, v)
			}
		}
		if size != slot.size {
			localFail("partition: a value of %d components for tag %q of size %d", size, slot.name, slot.size)
		}
	}
}
