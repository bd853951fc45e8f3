package ds

// Set is an ordered set: membership tests are O(1) and iteration visits
// elements in insertion order, which keeps every algorithm that walks a
// set deterministic. The zero value is not ready to use; call NewSet.
type Set[T comparable] struct {
	index map[T]int
	items []T
}

// NewSet returns an empty set, optionally seeded with the given values.
func NewSet[T comparable](vals ...T) *Set[T] {
	s := &Set[T]{index: make(map[T]int, len(vals))}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// Add inserts v and reports whether it was not already present.
func (s *Set[T]) Add(v T) bool {
	if _, ok := s.index[v]; ok {
		return false
	}
	s.index[v] = len(s.items)
	s.items = append(s.items, v)
	return true
}

// Remove deletes v and reports whether it was present. Removal is O(1)
// but moves the last inserted element into the vacated slot, so it
// perturbs iteration order; algorithms that need strict order must not
// interleave removals with ordered walks.
func (s *Set[T]) Remove(v T) bool {
	i, ok := s.index[v]
	if !ok {
		return false
	}
	last := len(s.items) - 1
	moved := s.items[last]
	s.items[i] = moved
	s.index[moved] = i
	s.items = s.items[:last]
	delete(s.index, v)
	return true
}

// Has reports whether v is in the set.
func (s *Set[T]) Has(v T) bool {
	_, ok := s.index[v]
	return ok
}

// Len returns the number of elements.
func (s *Set[T]) Len() int { return len(s.items) }

// Values returns the underlying element slice in iteration order.
// The caller must not mutate it.
func (s *Set[T]) Values() []T { return s.items }
