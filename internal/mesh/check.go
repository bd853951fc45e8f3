package mesh

import "fmt"

// CheckConsistency verifies the structural invariants of the complete
// representation and returns the first violation found:
//
//   - every downward adjacency of a live entity is live (its type is
//     the slot's by construction: storage holds only the index);
//   - up/down symmetry: d appears in e's downward list iff e appears in
//     d's use list;
//   - face edge cycles close (consecutive edges share a vertex);
//   - every region's faces form a closed shell (each edge of the region
//     bounds exactly two of its faces);
//   - classification, when a model is attached, resolves to a model
//     entity of dimension >= the entity's dimension.
//
// The up/down symmetry check is linear in the mesh size: a first sweep
// counts the downward references each entity receives, a second walks
// each use list once, verifying that every use points back and that the
// list is as long as the reference count, cutting the walk off one step
// past it. That is complete for an intrusive list. A use is one (user,
// slot) cell with one next pointer, and point-back ties it to the single
// entity that slot names, so no use sits in two entities' lists; a use
// met twice in its own list means the chain has looped, which never
// ends and so trips the cut-off. Distinct uses, all pointing back, as
// many as there are references: the two relations coincide — without
// stamping every downward slot, which cost a word per slot per run.
func (m *Mesh) CheckConsistency() error {
	// Pass 1: downward references are live; tally how many references
	// each entity receives.
	var refCount [TypeCount][]int32
	for t := Type(0); t < TypeCount; t++ {
		refCount[t] = make([]int32, m.td[t].slots())
	}
	for t := Type(0); t < TypeCount; t++ {
		td := &m.td[t]
		for i := int32(0); i < td.slots(); i++ {
			if !td.alive[i] {
				continue
			}
			e := Ent{T: t, I: i}
			var s [6]Ent
			for j, d := range m.down(e, &s) {
				if !m.Alive(d) {
					return fmt.Errorf("mesh: %v downward[%d] = %v is not alive", e, j, d)
				}
				refCount[d.T][d.I]++
			}
			if err := m.checkEntityLocal(e); err != nil {
				return err
			}
		}
	}
	// Pass 2: walk each use list once, cut off past the reference
	// count so that a corrupt cyclic list ends in an error, not a hang.
	for t := Type(0); t < TypeCount; t++ {
		td := &m.td[t]
		for i := int32(0); i < td.slots(); i++ {
			if !td.alive[i] {
				continue
			}
			e := Ent{T: t, I: i}
			want := refCount[t][i]
			var n int32
			for u := td.firstUse[i]; u.ok(); u = m.useNext(u) {
				ue, slot := u.ent(), u.slot()
				if !m.Alive(ue) {
					return fmt.Errorf("mesh: %v has use by dead entity %v", e, ue)
				}
				utd, idx := m.useSlot(u)
				if slot >= utd.degree || downTypes[ue.T][slot] != t || utd.down[idx] != i {
					return fmt.Errorf("mesh: %v use by %v slot %d does not point back", e, ue, slot)
				}
				if n++; n > want {
					return fmt.Errorf("mesh: %v use list exceeds its %d downward references (corrupt or cyclic)", e, want)
				}
			}
			if n != want {
				return fmt.Errorf("mesh: %v has %d uses but %d downward references", e, n, want)
			}
		}
	}
	return nil
}

// checkEntityLocal runs the per-entity checks that need no global
// information: face cycles, region shells and classification.
func (m *Mesh) checkEntityLocal(e Ent) error {
	switch e.Dim() {
	case 2:
		if err := m.checkFaceCycle(e); err != nil {
			return err
		}
	case 3:
		if err := m.checkRegionShell(e); err != nil {
			return err
		}
	}
	if m.model != nil {
		c := m.Classification(e)
		if c.Valid() {
			if m.model.Get(c) == nil {
				return fmt.Errorf("mesh: %v classified on unknown %v", e, c)
			}
			if int(c.Dim) < e.Dim() {
				return fmt.Errorf("mesh: %v (dim %d) classified on lower-dim %v", e, e.Dim(), c)
			}
		}
	}
	return nil
}

func (m *Mesh) checkFaceCycle(f Ent) error {
	var ebuf, abuf, bbuf [8]Ent
	edges := m.DownTo(f, ebuf[:0])
	n := len(edges)
	for i := 0; i < n; i++ {
		a, b := edges[i], edges[(i+1)%n]
		shared := false
		for _, v1 := range m.DownTo(a, abuf[:0]) {
			for _, v2 := range m.DownTo(b, bbuf[:0]) {
				if v1 == v2 {
					shared = true
				}
			}
		}
		if !shared {
			return fmt.Errorf("mesh: face %v edges %v,%v do not share a vertex", f, a, b)
		}
	}
	return nil
}

func (m *Mesh) checkRegionShell(r Ent) error {
	// A region has at most 6 faces of at most 4 edges; count in a small
	// stack buffer rather than a map, this runs for every region.
	var edges [24]Ent
	var counts [24]int
	var fbuf, ebuf [8]Ent
	n := 0
	for _, f := range m.DownTo(r, fbuf[:0]) {
		for _, e := range m.DownTo(f, ebuf[:0]) {
			found := false
			for i := 0; i < n; i++ {
				if edges[i] == e {
					counts[i]++
					found = true
					break
				}
			}
			if !found {
				edges[n] = e
				counts[n] = 1
				n++
			}
		}
	}
	for i := 0; i < n; i++ {
		if counts[i] != 2 {
			return fmt.Errorf("mesh: region %v edge %v bounds %d of its faces, want 2", r, edges[i], counts[i])
		}
	}
	return nil
}

// Stats summarizes a part's entity counts per dimension.
type Stats struct {
	Counts   [4]int
	Shared   [4]int
	Ghosts   [4]int
	Owned    [4]int
	PartID   int32
	Boundary int // total shared entities
}

// ComputeStats tallies the part's entities.
func (m *Mesh) ComputeStats() Stats {
	s := Stats{PartID: m.part}
	for d := 0; d <= m.dim; d++ {
		for e := range m.Iter(d) {
			s.Counts[d]++
			if m.IsGhost(e) {
				s.Ghosts[d]++
				continue
			}
			if m.IsShared(e) {
				s.Shared[d]++
				s.Boundary++
			}
			if m.IsOwned(e) {
				s.Owned[d]++
			}
		}
	}
	return s
}
