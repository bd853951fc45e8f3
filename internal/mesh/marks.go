package mesh

// Marks is a set of entity handles of one mesh, stored as one bitset
// per type indexed by slot. It is scratch for a single traversal —
// "have I visited this entity" — where a map[Ent]bool would hash and
// allocate per entry: create it with NewMarks, use it, drop it. A type's
// bitset is allocated on the first Set of that type, sized to the
// type's current slot count, and grows if the mesh does. Marks does not
// observe destruction: a slot freed and reused while marked reads as
// marked.
type Marks struct {
	m    *Mesh
	bits [TypeCount][]uint64
}

// NewMarks returns an empty mark set over m's entities.
func (m *Mesh) NewMarks() Marks { return Marks{m: m} }

// Has reports whether e is marked.
func (k *Marks) Has(e Ent) bool {
	b := k.bits[e.T]
	w := int(e.I >> 6)
	return w < len(b) && b[w]&(1<<(uint(e.I)&63)) != 0
}

// Set marks e and reports whether it was unmarked before.
func (k *Marks) Set(e Ent) bool {
	w := int(e.I >> 6)
	if w >= len(k.bits[e.T]) {
		n := max(w+1, (int(k.m.td[e.T].slots())+63)>>6)
		k.bits[e.T] = append(k.bits[e.T], make([]uint64, n-len(k.bits[e.T]))...)
	}
	bit := uint64(1) << (uint(e.I) & 63)
	was := k.bits[e.T][w]&bit != 0
	k.bits[e.T][w] |= bit
	return !was
}

// Clear unmarks e.
func (k *Marks) Clear(e Ent) {
	if b := k.bits[e.T]; int(e.I>>6) < len(b) {
		b[e.I>>6] &^= 1 << (uint(e.I) & 63)
	}
}
