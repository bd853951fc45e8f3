package mesh

import "slices"

// linkStore holds the part-boundary data of all entities of one type,
// paid for only where it exists, as MDS keeps remote copies on boundary
// entities alone. bnd maps each slot to its entry in the boundary table,
// -1 for an interior slot: no remote copies, not a ghost. An entry enters
// when its slot gains a first link or becomes a ghost, and leaves, the
// last entry taking its place, on its last link (a ghost keeps it) or
// when the slot dies; sorted restores slot order on read. Only a ghost
// stores an owner: any other entity's is derived from its links (Owner).
//
// A slot's links form a chain through pooled parallel arrays, sorted by
// part id at insertion, so every read observes a deterministic order
// with no per-call sorting. Freed records go on an intrusive free list,
// so a boundary that churns (migration, ghosting) recycles storage, and
// a round that knows how many links it sets grows the arrays once.
type linkStore struct {
	bnd      []int32    // per slot: index in entries, -1 = interior
	entries  []bndEntry // the boundary table
	unsorted bool       // entries is out of slot order
	part     []int32    // link record: peer part id
	ent      []uint32   // link record: the copy's packed handle on that part
	next     []int32    // link record: next record of the same slot, -1 = end
	free     int32      // head of the free list threaded through next, -1 = none
	nfree    int        // records on the free list
}

// bndEntry is one slot's row of the boundary table.
type bndEntry struct {
	slot  int32
	owner int32 // a ghost's owning part, -1 = not a ghost
	head  int32 // first link record, -1 = none
}

// nbCache memoizes one dimension's NeighborParts result against the
// topology epoch, which starts at 1: epoch 0 holds nothing.
type nbCache struct {
	parts []int32
	epoch uint64
}

// headOf returns the first link record of slot i, -1 if none.
func (ls *linkStore) headOf(i int32) int32 {
	if b := ls.bnd[i]; b >= 0 {
		return ls.entries[b].head
	}
	return -1
}

// enter gives interior slot i an entry, no ghost and no link yet, and
// returns its index.
func (ls *linkStore) enter(i int32) int32 {
	b := int32(len(ls.entries))
	ls.unsorted = ls.unsorted || b > 0 && ls.entries[b-1].slot > i
	ls.entries = append(ls.entries, bndEntry{slot: i, owner: -1, head: -1})
	ls.bnd[i] = b
	return b
}

// settle removes slot i's entry once it holds no link and is no ghost,
// or the slot dies: its chain must be unlinked first.
func (ls *linkStore) settle(i int32, dying bool) {
	b, last := ls.bnd[i], int32(len(ls.entries)-1)
	if en := ls.entries[b]; !dying && (en.head >= 0 || en.owner >= 0) {
		return
	}
	if b != last {
		ls.entries[b] = ls.entries[last]
		ls.bnd[ls.entries[b].slot] = b
		ls.unsorted = true
	}
	ls.entries = ls.entries[:last]
	ls.bnd[i] = -1
}

// sorted returns the boundary table in slot order.
func (ls *linkStore) sorted() []bndEntry {
	if ls.unsorted {
		slices.SortFunc(ls.entries, func(a, b bndEntry) int { return int(a.slot - b.slot) })
		for b, en := range ls.entries {
			ls.bnd[en.slot] = int32(b)
		}
		ls.unsorted = false
	}
	return ls.entries
}

// set records (part -> h) on slot i, keeping the chain sorted by part;
// an interior slot enters the table.
func (ls *linkStore) set(i, part int32, h Ent) {
	b := ls.bnd[i]
	if b < 0 {
		b = ls.enter(i)
	}
	prev, cur := int32(-1), ls.entries[b].head
	for cur >= 0 && ls.part[cur] < part {
		prev, cur = cur, ls.next[cur]
	}
	if cur >= 0 && ls.part[cur] == part {
		ls.ent[cur] = h.Pack()
		return
	}
	id := ls.free
	if id >= 0 {
		ls.free, ls.nfree = ls.next[id], ls.nfree-1
		ls.part[id], ls.ent[id], ls.next[id] = part, h.Pack(), cur
	} else {
		id = int32(len(ls.part))
		ls.part, ls.ent, ls.next = append(ls.part, part), append(ls.ent, h.Pack()), append(ls.next, cur)
	}
	if prev < 0 {
		ls.entries[b].head = id
	} else {
		ls.next[prev] = id
	}
}

// find returns slot i's link record for the given part, -1 if absent.
func (ls *linkStore) find(i, part int32) int32 {
	for cur := ls.headOf(i); cur >= 0 && ls.part[cur] <= part; cur = ls.next[cur] {
		if ls.part[cur] == part {
			return cur
		}
	}
	return -1
}

// remove unlinks slot i's record for the given part onto the free list.
func (ls *linkStore) remove(i, part int32) {
	b := ls.bnd[i]
	if b < 0 {
		return
	}
	prev, cur := int32(-1), ls.entries[b].head
	for cur >= 0 && ls.part[cur] != part {
		prev, cur = cur, ls.next[cur]
	}
	if cur < 0 {
		return
	}
	if prev < 0 {
		ls.entries[b].head = ls.next[cur]
	} else {
		ls.next[prev] = ls.next[cur]
	}
	ls.next[cur], ls.free, ls.nfree = ls.free, cur, ls.nfree+1
	ls.settle(i, false)
}

// clear moves slot i's whole chain onto the free list in one splice and
// settles the slot.
func (ls *linkStore) clear(i int32, dying bool) {
	b := ls.bnd[i]
	if b < 0 {
		return
	}
	if first := ls.entries[b].head; first >= 0 {
		last, n := first, 1
		for ls.next[last] >= 0 {
			last = ls.next[last]
			n++
		}
		ls.next[last], ls.free, ls.nfree = ls.free, first, ls.nfree+n
		ls.entries[b].head = -1
	}
	ls.settle(i, dying)
}

// reserve makes room for n more link records beyond the free list, in
// one step to the capacity appending them one by one would reach.
func (ls *linkStore) reserve(n int) {
	need, c := len(ls.part)+n-ls.nfree, cap(ls.part)
	for c < need { // append's growth: double, then by a quarter
		if c < 256 {
			c = max(1, 2*c)
		} else {
			c += (c + 3*256) / 4
		}
	}
	n = c - len(ls.part)
	ls.part, ls.ent, ls.next = slices.Grow(ls.part, n), slices.Grow(ls.ent, n), slices.Grow(ls.next, n)
}

// count returns the number of links of slot i.
func (ls *linkStore) count(i int32) int {
	n := 0
	for cur := ls.headOf(i); cur >= 0; cur = ls.next[cur] {
		n++
	}
	return n
}
