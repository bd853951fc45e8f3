package mesh

import (
	"fmt"
	"slices"

	"github.com/fastmath/pumi-go/internal/pcu"
)

// VerifyParallel is the distributed-mesh verifier — PUMI's verify() —
// run directly on the mesh layer (collective; every rank must call it
// with its local parts, however many it holds). It checks, across all
// parts of the distributed mesh:
//
//   - every part passes CheckConsistency;
//   - elements are never shared, and ghosts carry no remote-copy links;
//   - remote-copy symmetry: if part A records a copy of e on part B
//     with handle h, then B holds a live, non-ghost h whose remotes
//     point back at (A, e);
//   - owner agreement: both sides of every link record the same owning
//     part, and the owner lies inside the entity's residence set;
//   - part-boundary classification: a shared entity bounds at least one
//     higher-dimension entity on its part (no orphaned boundary
//     entities), links never name the entity's own part, and the
//     downward closure of a shared entity is shared with at least the
//     same parts (an edge on the boundary with q implies its vertices
//     are too).
//
// The symmetry checks neighbor-exchange the remote-copy links, so the
// cost is one sparse communication phase plus a linear sweep; it is
// meant to run at the end of every parallel test path and after bulk
// operations (migration, ghosting, adaptation) while debugging.
func VerifyParallel(c *pcu.Ctx, ms ...*Mesh) error {
	// Part layout: every rank announces the part ids it holds, so links
	// can be routed rank-to-rank even with many parts per rank.
	ids := make([]int32, len(ms))
	local := map[int32]*Mesh{}
	for i, m := range ms {
		ids[i] = m.Part()
		if local[m.Part()] != nil {
			panic(fmt.Sprintf("mesh: VerifyParallel passed duplicate part %d", m.Part()))
		}
		local[m.Part()] = m
	}
	layout := pcu.Allgather(c, ids)
	rankOf := map[int32]int{}
	for r, parts := range layout {
		for _, p := range parts {
			rankOf[p] = r
		}
	}

	var firstErr error
	record := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}

	// Local sweeps. They also count the bytes each rank's link records
	// take (22 a link), so that the exchange reserves each buffer once.
	var peers []int32 // remote-part scratch
	var down [6]Ent
	need := make([]int, c.Size())
	for _, m := range ms {
		c.Count("mesh.consistency-checks", 1)
		record(m.CheckConsistency())
		for el := range m.Elements() {
			if m.IsShared(el) {
				record(fmt.Errorf("mesh: element %v on part %d is shared", el, m.Part()))
				break
			}
		}
		for d := 0; d < m.Dim(); d++ {
			for e := range m.Iter(d) {
				if m.IsGhost(e) {
					if m.HasRemotes(e) {
						record(fmt.Errorf("mesh: ghost %v on part %d has remote-copy links", e, m.Part()))
					}
					continue
				}
				peers = m.AppendRemoteParts(e, peers[:0])
				if len(peers) == 0 {
					continue
				}
				if !m.HasUp(e) {
					record(fmt.Errorf("mesh: shared %v on part %d bounds nothing (orphan boundary entity)", e, m.Part()))
				}
				if o := m.Owner(e); o != m.Part() && !slices.Contains(peers, o) {
					record(fmt.Errorf("mesh: owner %d of shared %v on part %d outside residence set",
						o, e, m.Part()))
				}
				for _, q := range peers {
					if q == m.Part() {
						record(fmt.Errorf("mesh: %v on part %d lists its own part as a remote", e, m.Part()))
					}
					if r, ok := rankOf[q]; ok {
						need[r] += 22
					} else {
						record(fmt.Errorf("mesh: %v on part %d linked to unknown part %d", e, m.Part(), q))
					}
					// Closure: everything bounding a shared entity is
					// shared with at least the same parts.
					for _, de := range m.down(e, &down) {
						if _, ok := m.RemoteCopy(de, q); !ok {
							record(fmt.Errorf("mesh: %v shared with part %d but its bounding %v is not",
								e, q, de))
						}
					}
				}
			}
		}
	}

	// Neighbor exchange: each side sends every link it holds; the
	// receiver confirms liveness, the back link and the owner. Because
	// both directions send, a one-sided link is always caught.
	for _, m := range ms {
		for d := 0; d < m.Dim(); d++ {
			for e := range m.PartBoundary(d) {
				owner := m.Owner(e)
				ls := &m.links[e.T]
				for cur := ls.headOf(e.I); cur >= 0; cur = ls.next[cur] {
					q, h := ls.part[cur], ls.ent[cur]
					r, ok := rankOf[q]
					if !ok {
						continue // already recorded above
					}
					b := c.To(r)
					b.Grow(need[r])
					need[r] = 0
					b.Int32(q)
					b.Int32(m.Part())
					b.Byte(byte(e.T))
					b.Int32(e.I)
					b.Byte(byte(h.T))
					b.Int32(h.I)
					b.Int32(owner)
				}
			}
		}
	}
	for _, msg := range c.Exchange() {
		r := msg.Data
		for !r.Empty() {
			dest := r.Int32()
			src := r.Int32()
			theirs := Ent{T: Type(r.Byte()), I: r.Int32()}
			mine := Ent{T: Type(r.Byte()), I: r.Int32()}
			owner := r.Int32()
			m := local[dest]
			if m == nil {
				record(fmt.Errorf("mesh: link for part %d routed to rank %d which does not hold it", dest, c.Rank()))
				continue
			}
			if !m.Alive(mine) {
				record(fmt.Errorf("mesh: part %d claims dead copy %v on part %d", src, mine, dest))
				continue
			}
			if m.IsGhost(mine) {
				record(fmt.Errorf("mesh: part %d claims ghost %v on part %d as a remote copy", src, mine, dest))
				continue
			}
			back, ok := m.RemoteCopy(mine, src)
			if !ok {
				record(fmt.Errorf("mesh: part %d lacks the back link to part %d for %v", dest, src, mine))
			} else if back != theirs {
				record(fmt.Errorf("mesh: asymmetric link on part %d: %v points to %v on part %d, peer says %v",
					dest, mine, back, src, theirs))
			}
			if m.Owner(mine) != owner {
				record(fmt.Errorf("mesh: owner disagreement for %v on part %d: local %d, part %d says %d",
					mine, dest, m.Owner(mine), src, owner))
			}
		}
	}

	// Every rank learns whether any rank failed, so collective callers
	// can assert a clean mesh on all ranks at once.
	anyErr := pcu.Allreduce(c, firstErr != nil, func(a, b bool) bool { return a || b })
	if firstErr == nil && anyErr {
		return fmt.Errorf("mesh: a peer rank found parallel mesh inconsistencies")
	}
	return firstErr
}
