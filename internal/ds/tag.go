package ds

import "fmt"

// TagKind identifies the value type stored by a tag.
type TagKind int

// Tag value kinds. Slice kinds store a fixed number of components per
// tagged datum (the tag's Size).
const (
	TagInt TagKind = iota
	TagFloat
	TagIntSlice
	TagFloatSlice
	TagBytes
	TagAny
)

func (k TagKind) String() string {
	switch k {
	case TagInt:
		return "int"
	case TagFloat:
		return "float"
	case TagIntSlice:
		return "int[]"
	case TagFloatSlice:
		return "float[]"
	case TagBytes:
		return "bytes"
	case TagAny:
		return "any"
	}
	return fmt.Sprintf("TagKind(%d)", int(k))
}

// Tag describes a named piece of user data attachable to keyed data.
// A Tag is created once per (name, kind, size) on a TagTable and then
// used as the handle for get/set operations. A handle is dead once its
// tag is destroyed: every later access through it panics.
type Tag struct {
	Name string
	Kind TagKind
	// Size is the number of components per datum for slice kinds,
	// and 1 otherwise.
	Size int
	id   int // index into TagTable.cols; -1 once destroyed
}

// TagKey is what a TagTable key must provide: its position in dense
// storage, as a small group number (for mesh entities, the entity
// type) and a slot index within that group.
type TagKey interface {
	TagSlot() (group, slot int)
}

// column holds one tag's values for one group of keys: a flat typed
// array indexed by slot (slot*Size for the slice kinds) and one
// presence bit per slot. Only the array matching the tag's kind is
// ever allocated.
type column struct {
	bits  []uint64 // presence; the column covers len(bits)*64 slots
	count int      // set bits
	f     []float64
	i     []int64
	b     []byte
	a     []any
}

// TagTable attaches tag data to keys that name slots of dense storage
// (entity handles). Each (tag, group) pair owns one column, allocated
// on the first Set of that pair and sized to the group's slot count,
// so a tag costs memory only for the groups it is used on — and there
// it costs the whole group, tagged or not. Has is a bit test, Get an
// index, Set an in-place store.
//
// Slice getters return views into the column: valid until the next
// write to this table's tags, and not to be mutated.
type TagTable[K TagKey] struct {
	tags    []*Tag // creation order
	byName  map[string]*Tag
	cols    [][]column // [tag id][group]
	freeIDs []int      // ids of destroyed tags, reused by Create

	// OnSet, when non-nil, observes every tag write before it lands —
	// once per run for a codec storing through FloatColumn. The mesh
	// layer hooks pumi-san's owner-only write checking here.
	OnSet func(K)

	// SlotCount, when non-nil, reports how many slots a group holds
	// right now; a column is allocated at that size instead of growing
	// up to it one write at a time.
	SlotCount func(group int) int
}

// NewTagTable returns an empty tag table.
func NewTagTable[K TagKey]() *TagTable[K] {
	return &TagTable[K]{byName: make(map[string]*Tag)}
}

// Create registers a new tag. It returns an error if the name is taken
// or the size is invalid for the kind.
func (t *TagTable[K]) Create(name string, kind TagKind, size int) (*Tag, error) {
	if _, ok := t.byName[name]; ok {
		return nil, fmt.Errorf("ds: tag %q already exists", name)
	}
	switch kind {
	case TagIntSlice, TagFloatSlice, TagBytes:
		if size < 1 {
			return nil, fmt.Errorf("ds: tag %q: size %d invalid for kind %v", name, size, kind)
		}
	default:
		size = 1
	}
	tag := &Tag{Name: name, Kind: kind, Size: size}
	if n := len(t.freeIDs); n > 0 {
		tag.id = t.freeIDs[n-1]
		t.freeIDs = t.freeIDs[:n-1]
	} else {
		tag.id = len(t.cols)
		t.cols = append(t.cols, nil)
	}
	t.tags = append(t.tags, tag)
	t.byName[name] = tag
	return tag, nil
}

// Find returns the tag with the given name, or nil.
func (t *TagTable[K]) Find(name string) *Tag { return t.byName[name] }

// Tags returns all registered tags in creation order.
func (t *TagTable[K]) Tags() []*Tag { return t.tags }

// Destroy removes a tag and all data attached under it, and kills the
// handle. Destroying a tag twice is a no-op.
func (t *TagTable[K]) Destroy(tag *Tag) {
	if tag.id < 0 || t.byName[tag.Name] != tag {
		return
	}
	delete(t.byName, tag.Name)
	t.cols[tag.id] = nil
	t.freeIDs = append(t.freeIDs, tag.id)
	tag.id = -1
	for i, x := range t.tags {
		if x == tag {
			t.tags = append(t.tags[:i], t.tags[i+1:]...)
			break
		}
	}
}

// Has reports whether key carries data under tag.
func (t *TagTable[K]) Has(tag *Tag, key K) bool {
	mustLive(tag)
	c, _ := t.lookup(tag, key)
	return c != nil
}

// Delete removes tag data from key.
func (t *TagTable[K]) Delete(tag *Tag, key K) {
	mustLive(tag)
	if c, s := t.lookup(tag, key); c != nil {
		c.clear(s)
	}
}

// DeleteAll removes tag data for key under every tag (used when the
// underlying datum is destroyed, so a reused slot reads untagged).
func (t *TagTable[K]) DeleteAll(key K) {
	g, s := key.TagSlot()
	for _, cols := range t.cols {
		if g < len(cols) && cols[g].has(s) {
			cols[g].clear(s)
		}
	}
}

// CountTagged returns the number of keys carrying data under tag.
func (t *TagTable[K]) CountTagged(tag *Tag) int {
	mustLive(tag)
	n := 0
	for i := range t.cols[tag.id] {
		n += t.cols[tag.id][i].count
	}
	return n
}

// has reports whether slot s is present; a slot outside the column,
// the nil handle's -1 included, is not.
func (c *column) has(s int) bool {
	w := uint(s) >> 6
	return w < uint(len(c.bits)) && c.bits[w]&(1<<(s&63)) != 0
}

// clear drops slot s, which must be present. A TagAny value is
// released to the collector; the other kinds just go stale.
func (c *column) clear(s int) {
	c.bits[s>>6] &^= 1 << (s & 63)
	c.count--
	if c.a != nil {
		c.a[s] = nil
	}
}

// lookup returns key's column and slot when key carries data under
// tag, and a nil column otherwise.
func (t *TagTable[K]) lookup(tag *Tag, key K) (*column, int) {
	g, s := key.TagSlot()
	cols := t.cols[tag.id]
	if g >= len(cols) || !cols[g].has(s) {
		return nil, 0
	}
	return &cols[g], s
}

// store fires OnSet, marks key present under tag and returns its
// column, grown to cover the slot, for the caller to fill.
func (t *TagTable[K]) store(tag *Tag, key K) (*column, int) {
	if t.OnSet != nil {
		t.OnSet(key)
	}
	g, s := key.TagSlot()
	cols := t.cols[tag.id]
	if g >= len(cols) || s>>6 >= len(cols[g].bits) {
		cols = t.grow(tag, g, s)
	}
	c := &cols[g]
	if w, bit := s>>6, uint64(1)<<(s&63); c.bits[w]&bit == 0 {
		c.bits[w] |= bit
		c.count++
	}
	return c, s
}

// grow makes tag's column for group g cover slot s (and the group's
// whole slot count, when known). Growth appends, so a mesh that gains
// tagged entities one at a time pays amortized constant per entity;
// values already stored, and slices viewing the old array, are left
// intact.
func (t *TagTable[K]) grow(tag *Tag, g, s int) []column {
	cols := t.cols[tag.id]
	if g >= len(cols) {
		cols = append(cols, make([]column, g+1-len(cols))...)
		t.cols[tag.id] = cols
	}
	need := s + 1
	if t.SlotCount != nil {
		need = max(need, t.SlotCount(g))
	}
	c := &cols[g]
	c.bits = growTo(c.bits, (need+63)>>6)
	n := len(c.bits) << 6 * tag.Size
	switch tag.Kind {
	case TagInt, TagIntSlice:
		c.i = growTo(c.i, n)
	case TagFloat, TagFloatSlice:
		c.f = growTo(c.f, n)
	case TagBytes:
		c.b = growTo(c.b, n)
	case TagAny:
		c.a = growTo(c.a, n)
	}
	return cols
}

// growTo extends s with zero values to length n.
func growTo[T any](s []T, n int) []T {
	return append(s, make([]T, n-len(s))...)
}

// SetInt attaches an integer value. The tag must have kind TagInt.
func (t *TagTable[K]) SetInt(tag *Tag, key K, v int64) {
	mustKind(tag, TagInt)
	c, s := t.store(tag, key)
	c.i[s] = v
}

// GetInt reads an integer value; ok is false if key is untagged.
func (t *TagTable[K]) GetInt(tag *Tag, key K) (v int64, ok bool) {
	mustKind(tag, TagInt)
	c, s := t.lookup(tag, key)
	if c == nil {
		return 0, false
	}
	return c.i[s], true
}

// SetFloat attaches a float value. The tag must have kind TagFloat.
func (t *TagTable[K]) SetFloat(tag *Tag, key K, v float64) {
	mustKind(tag, TagFloat)
	c, s := t.store(tag, key)
	c.f[s] = v
}

// GetFloat reads a float value; ok is false if key is untagged.
func (t *TagTable[K]) GetFloat(tag *Tag, key K) (v float64, ok bool) {
	mustKind(tag, TagFloat)
	c, s := t.lookup(tag, key)
	if c == nil {
		return 0, false
	}
	return c.f[s], true
}

// FloatColumn returns a float tag's column for one group — values by
// slot, presence bits (slot s is bit s&63 of bits[s>>6]), the count of
// set bits; nil if none — for codecs that move a run of keys with one
// lookup. A caller that has fired OnSet for the run may store into a
// covered slot: value, bit, and count if the bit was clear. A slot
// beyond takes a SetFloat, and the column must be looked up again.
func (t *TagTable[K]) FloatColumn(tag *Tag, group int) (f []float64, bits []uint64, count *int) {
	mustKind(tag, TagFloat)
	cols := t.cols[tag.id]
	if group >= len(cols) {
		return nil, nil, nil
	}
	c := &cols[group]
	return c.f, c.bits, &c.count
}

// SetInts attaches a fixed-size integer slice (copied). v may be a
// view of this tag returned by GetInts.
func (t *TagTable[K]) SetInts(tag *Tag, key K, v []int64) {
	mustKind(tag, TagIntSlice)
	mustSize(tag, len(v))
	c, s := t.store(tag, key)
	copy(c.i[s*len(v):], v)
}

// GetInts reads an integer slice: a view, see TagTable.
func (t *TagTable[K]) GetInts(tag *Tag, key K) ([]int64, bool) {
	mustKind(tag, TagIntSlice)
	c, s := t.lookup(tag, key)
	if c == nil {
		return nil, false
	}
	return c.i[s*tag.Size : (s+1)*tag.Size : (s+1)*tag.Size], true
}

// SetFloats attaches a fixed-size float slice (copied). v may be a
// view of this tag returned by GetFloats.
func (t *TagTable[K]) SetFloats(tag *Tag, key K, v []float64) {
	mustKind(tag, TagFloatSlice)
	mustSize(tag, len(v))
	c, s := t.store(tag, key)
	copy(c.f[s*len(v):], v)
}

// GetFloats reads a float slice: a view, see TagTable.
func (t *TagTable[K]) GetFloats(tag *Tag, key K) ([]float64, bool) {
	mustKind(tag, TagFloatSlice)
	c, s := t.lookup(tag, key)
	if c == nil {
		return nil, false
	}
	return c.f[s*tag.Size : (s+1)*tag.Size : (s+1)*tag.Size], true
}

// SetBytes attaches raw bytes of the tag's size (copied).
func (t *TagTable[K]) SetBytes(tag *Tag, key K, v []byte) {
	mustKind(tag, TagBytes)
	mustSize(tag, len(v))
	c, s := t.store(tag, key)
	copy(c.b[s*len(v):], v)
}

// GetBytes reads raw bytes: a view, see TagTable.
func (t *TagTable[K]) GetBytes(tag *Tag, key K) ([]byte, bool) {
	mustKind(tag, TagBytes)
	c, s := t.lookup(tag, key)
	if c == nil {
		return nil, false
	}
	return c.b[s*tag.Size : (s+1)*tag.Size : (s+1)*tag.Size], true
}

// SetAny attaches an arbitrary value under a TagAny tag.
func (t *TagTable[K]) SetAny(tag *Tag, key K, v any) {
	mustKind(tag, TagAny)
	c, s := t.store(tag, key)
	c.a[s] = v
}

// GetAny reads an arbitrary value.
func (t *TagTable[K]) GetAny(tag *Tag, key K) (any, bool) {
	mustKind(tag, TagAny)
	c, s := t.lookup(tag, key)
	if c == nil {
		return nil, false
	}
	return c.a[s], true
}

// mustKind checks a typed access against the tag's kind and, in the
// same branch, that the handle is alive — tag.id is -1 after Destroy,
// so the hot path pays one compare and no lookup.
func mustKind(tag *Tag, k TagKind) {
	if tag.Kind != k || tag.id < 0 {
		mustLive(tag)
		panic(fmt.Sprintf("ds: tag %q has kind %v, accessed as %v", tag.Name, tag.Kind, k))
	}
}

func mustLive(tag *Tag) {
	if tag.id < 0 {
		panic(fmt.Sprintf("ds: tag %q was destroyed", tag.Name))
	}
}

func mustSize(tag *Tag, n int) {
	if tag.Size != n {
		panic(fmt.Sprintf("ds: tag %q has size %d, got %d values", tag.Name, tag.Size, n))
	}
}
