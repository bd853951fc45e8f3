package mesh

// linkStore is the MDS-style array-backed store of remote-copy links
// for all entities of one type. Each entity's links form a singly
// linked chain threaded through pooled parallel arrays (struct of
// arrays: part, handle, next), headed by a per-slot index. Chains are
// kept sorted by part id at insertion, so every read — RemoteCopy,
// AppendRemoteParts, Residence — observes a deterministic order by
// construction, with no per-call sorting and no map-order hazards.
// Freed records go on an intrusive free list and are reused, so a
// boundary that churns (migration, ghosting) recycles storage instead
// of growing it.
// nbCache memoizes one dimension's NeighborParts result against the
// topology epoch.
type nbCache struct {
	parts []int32
	epoch uint64
	valid bool
}

type linkStore struct {
	head []int32 // per entity slot: first link record, -1 = none
	part []int32 // link record: peer part id
	ent  []Ent   // link record: the copy's handle on that part
	next []int32 // link record: next record of the same entity, -1 = end
	free int32   // head of the free list threaded through next, -1 = none
	n    int     // live link records
}

// headOf returns the first link record of slot i, -1 if none. It is
// safe on handles beyond the grown region (a fresh mesh has no links).
func (ls *linkStore) headOf(i int32) int32 {
	if int(i) >= len(ls.head) {
		return -1
	}
	return ls.head[i]
}

// allocRec takes a record off the free list (or appends one) and fills
// it.
func (ls *linkStore) allocRec(part int32, h Ent, next int32) int32 {
	if ls.free >= 0 {
		id := ls.free
		ls.free = ls.next[id]
		ls.part[id], ls.ent[id], ls.next[id] = part, h, next
		return id
	}
	ls.part = append(ls.part, part)
	ls.ent = append(ls.ent, h)
	ls.next = append(ls.next, next)
	return int32(len(ls.part) - 1)
}

// set records (part -> h) on slot i, keeping the chain sorted by part.
// It reports whether a new link was added (false: updated in place).
func (ls *linkStore) set(i, part int32, h Ent) bool {
	prev := int32(-1)
	cur := ls.head[i]
	for cur >= 0 && ls.part[cur] < part {
		prev, cur = cur, ls.next[cur]
	}
	if cur >= 0 && ls.part[cur] == part {
		ls.ent[cur] = h
		return false
	}
	id := ls.allocRec(part, h, cur)
	if prev < 0 {
		ls.head[i] = id
	} else {
		ls.next[prev] = id
	}
	ls.n++
	return true
}

// find returns slot i's link record for the given part, -1 if absent.
func (ls *linkStore) find(i, part int32) int32 {
	for cur := ls.headOf(i); cur >= 0; cur = ls.next[cur] {
		if ls.part[cur] == part {
			return cur
		}
		if ls.part[cur] > part {
			return -1
		}
	}
	return -1
}

// remove unlinks slot i's record for the given part onto the free
// list; it reports whether a link existed.
func (ls *linkStore) remove(i, part int32) bool {
	prev := int32(-1)
	cur := ls.head[i]
	for cur >= 0 && ls.part[cur] != part {
		prev, cur = cur, ls.next[cur]
	}
	if cur < 0 {
		return false
	}
	if prev < 0 {
		ls.head[i] = ls.next[cur]
	} else {
		ls.next[prev] = ls.next[cur]
	}
	ls.next[cur] = ls.free
	ls.free = cur
	ls.n--
	return true
}

// clear moves slot i's whole chain onto the free list in one splice;
// it reports whether any link existed.
func (ls *linkStore) clear(i int32) bool {
	cur := ls.headOf(i)
	if cur < 0 {
		return false
	}
	for {
		ls.n--
		next := ls.next[cur]
		if next < 0 {
			ls.next[cur] = ls.free
			ls.free = ls.head[i]
			ls.head[i] = -1
			return true
		}
		cur = next
	}
}

// count returns the number of links of slot i.
func (ls *linkStore) count(i int32) int {
	n := 0
	for cur := ls.headOf(i); cur >= 0; cur = ls.next[cur] {
		n++
	}
	return n
}
