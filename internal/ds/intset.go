package ds

import "slices"

// IntSet is a small sorted set of int32 ids, used for the residence-part
// sets that key the partition model. Values are kept unique and
// ascending, so equal sets have equal Keys. The zero value is an empty
// set.
type IntSet struct {
	vals []int32
}

// NewIntSet returns a set holding the given values.
func NewIntSet(vals ...int32) IntSet {
	s := IntSet{}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// Add inserts v, keeping the set sorted; reports whether v was new.
func (s *IntSet) Add(v int32) bool {
	i, ok := slices.BinarySearch(s.vals, v)
	if ok {
		return false
	}
	s.vals = slices.Insert(s.vals, i, v)
	return true
}

// Has reports membership.
func (s IntSet) Has(v int32) bool {
	_, ok := slices.BinarySearch(s.vals, v)
	return ok
}

// Len returns the number of elements.
func (s IntSet) Len() int { return len(s.vals) }

// Values returns the sorted elements; the caller must not mutate them.
func (s IntSet) Values() []int32 { return s.vals }

// Min returns the smallest element; it panics on an empty set.
func (s IntSet) Min() int32 { return s.vals[0] }

// Key returns a compact string usable as a map key identifying the set's
// exact contents.
func (s IntSet) Key() string {
	// Each value contributes 4 bytes big-endian; sets are small (the
	// number of parts sharing an entity), so this stays cheap.
	b := make([]byte, 0, 4*len(s.vals))
	for _, v := range s.vals {
		b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return string(b)
}
