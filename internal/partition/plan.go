package partition

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Boundary-exchange plans. SyncShared and ReduceShared used to
// rediscover the part-boundary structure on every round: filter all
// entities through IsShared, allocate Remotes slices per entity, and
// ship a 5-byte (type, index) header per entity so the receiver could
// find the target copy. A BoundaryPlan compiles that structure once —
// per peer part, the CSR list of local entities in an order both sides
// agree on without communication — and is cached on the DMesh against
// the parts' topology epochs, so steady-state rounds are header-free
// and allocation-free, the star-forest idea of PETSc's SF/DMPlex
// distribution applied to the paper's part-boundary links.
//
// The order agreement needs no messages: for sync (owner to copies)
// the owner emits its owned shared entities sorted by its own handle,
// and each receiver sorts its mirror copies by the owner-side handle
// its remote-copy link stores — identical keys by link symmetry. For
// reduce (copies to owner) the roles flip: each sender sorts by the
// owner-side handle, the owner by its own handle.
//
// Planned messages carry, per (from part, to part) section, the two
// part ids followed by one length-prefixed payload per entity in the
// agreed order. This is the only boundary wire format: the sanitizer
// hashes these bytes and guards these writes, and Verify checks the
// sync schedules against the links themselves.

// planDir is the direction of a compiled exchange.
type planDir uint8

const (
	dirSync   planDir = iota // owner -> copies
	dirReduce                // copies -> owner
)

func (d planDir) String() string {
	if d == dirSync {
		return "sync"
	}
	return "reduce"
}

// dimsKey identifies one cached plan: a bitmask of entity dimensions
// plus the direction.
type dimsKey struct {
	mask uint8
	dir  planDir
}

func dimsMask(dims []int) uint8 {
	var m uint8
	for _, d := range dims {
		if d < 0 || d > 3 {
			panic(fmt.Sprintf("partition: bad exchange dimension %d", d))
		}
		m |= 1 << d
	}
	return m
}

// partPlan is one local part's compiled schedule: per peer part, the
// CSR slice of local entities to pack (send side) and to apply in
// arrival order (recv side). Peers appear in ascending part id; the
// entity order within a peer run is the owner-handle agreed order.
type partPlan struct {
	sendPeers []int32
	sendOff   []int32
	sendEnts  []mesh.Ent

	recvPeers []int32
	recvOff   []int32
	recvEnts  []mesh.Ent
}

// recvPeerIndex finds the recv run for the given peer part, -1 if the
// plan expects nothing from it.
func (pp *partPlan) recvPeerIndex(part int32) int {
	for i, q := range pp.recvPeers {
		if q == part {
			return i
		}
	}
	return -1
}

// BoundaryPlan is a compiled boundary exchange for one (dims,
// direction) pair across all local parts, valid exactly while every
// part's topology epoch matches the recorded vector.
type BoundaryPlan struct {
	dims   uint8
	dir    planDir
	epochs []uint64 // per local part, mesh.TopoEpoch at compile time
	parts  []partPlan

	// returnRanks are peer ranks this rank receives planned data from
	// without sending any back. execPlan sends them an empty message
	// each round so the transport's pooled payload arrays circulate
	// back instead of accumulating at the receiving side — without
	// this, one-directional exchanges (the common case: sync flows
	// owner to copies) drain the sending rank's buffer pool and force
	// an allocation every round.
	returnRanks []int
}

// planPair is compile-time scratch: one (peer, entity) incidence with
// its agreed ordering key.
type planPair struct {
	peer int32
	key  mesh.Ent // ordering key: the owner-side handle
	ent  mesh.Ent // local entity
}

// boundaryPlan returns the cached plan for (dims, dir), recompiling it
// if any local part's topology epoch moved since the last compile.
// Compilation is purely local — no communication — so ranks may
// recompile independently without collective hazards.
func (dm *DMesh) boundaryPlan(dims []int, dir planDir) *BoundaryPlan {
	key := dimsKey{mask: dimsMask(dims), dir: dir}
	pl := dm.plans[key]
	if dm.planLookup(pl != nil && dm.epochsMatch(pl.epochs)) {
		return pl
	}
	defer dm.Ctx.Span("partition.plan.compile").End()
	pl = compilePlan(dm, key)
	if dm.plans == nil {
		dm.plans = map[dimsKey]*BoundaryPlan{}
	}
	dm.plans[key] = pl
	return pl
}

// planLookup counts one lookup in either plan cache (boundary or ghost)
// as a hit or a miss and passes the verdict through.
func (dm *DMesh) planLookup(hit bool) bool {
	if hit {
		dm.Ctx.Count("partition.plan.hit", 1)
	} else {
		dm.Ctx.Count("partition.plan.miss", 1)
	}
	return hit
}

// compilePlan builds the schedule for every local part. For each
// shared entity of a planned dimension:
//
//   - sync: the owner sends to every copy; a non-owner receives from
//     the owner (which holds a copy by the residence invariant);
//   - reduce: a non-owner sends to the owner; the owner receives from
//     every copy.
//
// Send runs are emitted in local-handle order (PartBoundary iterates
// types then slots, which is exactly Ent.Less order for ascending
// dims); recv runs are sorted by the owner-side handle stored in the
// remote-copy link. Both equal the owner's emission order, so the wire
// needs no per-entity addressing.
func compilePlan(dm *DMesh, key dimsKey) *BoundaryPlan {
	pl := &BoundaryPlan{
		dims:   key.mask,
		dir:    key.dir,
		epochs: make([]uint64, len(dm.Parts)),
		parts:  make([]partPlan, len(dm.Parts)),
	}
	var sends, recvs []planPair
	for li, part := range dm.Parts {
		m := part.M
		sends, recvs = sends[:0], recvs[:0]
		for d := 0; d <= 3; d++ {
			if key.mask&(1<<d) == 0 {
				continue
			}
			for e := range m.PartBoundary(d) {
				if m.IsOwned(e) {
					m.EachRemote(e, func(q int32, h mesh.Ent) bool {
						if key.dir == dirSync {
							sends = append(sends, planPair{peer: q, key: e, ent: e})
						} else {
							recvs = append(recvs, planPair{peer: q, key: e, ent: e})
						}
						return true
					})
					continue
				}
				owner := m.Owner(e)
				h, ok := m.RemoteCopy(e, owner)
				if !ok {
					// Owner outside the link set: Verify flags this
					// state; the exchange skips it.
					continue
				}
				if key.dir == dirSync {
					recvs = append(recvs, planPair{peer: owner, key: h, ent: e})
				} else {
					sends = append(sends, planPair{peer: owner, key: h, ent: e})
				}
			}
		}
		pp := &pl.parts[li]
		pp.sendPeers, pp.sendOff, pp.sendEnts = buildCSR(sends)
		pp.recvPeers, pp.recvOff, pp.recvEnts = buildCSR(recvs)
		pl.epochs[li] = m.TopoEpoch()
	}
	pl.returnRanks = returnRanks(dm, pl.parts)
	return pl
}

// returnRanks computes the ranks the plan receives from but never
// sends to (see BoundaryPlan.returnRanks).
func returnRanks(dm *DMesh, parts []partPlan) []int {
	role := make([]int8, dm.Ctx.Size()) // per rank: 1 received from, 2 sent to
	for li := range parts {
		for _, q := range parts[li].recvPeers {
			role[dm.RankOf(q)] = max(role[dm.RankOf(q)], 1)
		}
		for _, q := range parts[li].sendPeers {
			role[dm.RankOf(q)] = 2
		}
	}
	var out []int
	for r, x := range role {
		if x == 1 {
			out = append(out, r)
		}
	}
	return out
}

// buildCSR groups pairs by peer (ascending) ordered by key within each
// run, and lays them out as peer list + offsets + flat entity slice,
// each allocated once at its length.
func buildCSR(pairs []planPair) (peers []int32, off []int32, ents []mesh.Ent) {
	slices.SortStableFunc(pairs, func(a, b planPair) int {
		return cmp.Or(cmp.Compare(a.peer, b.peer), a.key.Compare(b.key))
	})
	n := 0
	for i, p := range pairs {
		if i == 0 || p.peer != pairs[i-1].peer {
			n++
		}
	}
	peers, off, ents = make([]int32, 0, n), make([]int32, 1, n+1), make([]mesh.Ent, len(pairs))
	for i, p := range pairs {
		if i == 0 || p.peer != pairs[i-1].peer {
			peers = append(peers, p.peer)
			off = append(off, off[len(off)-1])
		}
		ents[i] = p.ent
		off[len(off)-1]++
	}
	return peers, off, ents
}

// execPlan runs one compiled exchange round: pack every send run into
// the per-rank buffers with (from, to) section framing, exchange, and
// apply each arriving section against the matching recv run. The
// steady-state round performs no allocations: the plan, the payload
// scratch, the sub-reader and the transport buffers are all reused.
func (dm *DMesh) execPlan(pl *BoundaryPlan, pack func(p *Part, e mesh.Ent, b *pcu.Buffer), apply func(p *Part, e mesh.Ent, r *pcu.Reader)) {
	ctx := dm.Ctx
	if dm.execNs == nil {
		dm.execNs = ctx.Metrics().Histogram("partition.plan.exec.ns")
	}
	var start time.Time
	if dm.execNs != nil {
		start = time.Now()
	}
	for li := range dm.Parts {
		part := dm.Parts[li]
		pp := &pl.parts[li]
		from := part.M.Part()
		for pi, q := range pp.sendPeers {
			b := ctx.To(dm.RankOf(q))
			b.Int32(from)
			b.Int32(q)
			for _, e := range pp.sendEnts[pp.sendOff[pi]:pp.sendOff[pi+1]] {
				dm.payload.Reset()
				pack(part, e, &dm.payload)
				b.Bytes(dm.payload.Raw())
			}
		}
	}
	for _, r := range pl.returnRanks {
		ctx.To(r) // empty return message; see BoundaryPlan.returnRanks
	}
	for _, msg := range ctx.Exchange() {
		for !msg.Data.Empty() {
			from := msg.Data.Int32()
			to := msg.Data.Int32()
			part := dm.LocalPart(to)
			pp := &pl.parts[dm.localIndex(to)]
			j := pp.recvPeerIndex(from)
			if j < 0 {
				panic(fmt.Sprintf("partition: %s plan on part %d expects nothing from part %d (stale plan?)",
					pl.dir, to, from))
			}
			for _, e := range pp.recvEnts[pp.recvOff[j]:pp.recvOff[j+1]] {
				dm.sub.Reset(msg.Data.BytesNoCopy())
				apply(part, e, &dm.sub)
			}
		}
		msg.Data.Done()
	}
	if dm.execNs != nil {
		dm.execNs.Observe(ctx.Rank(), int64(time.Since(start)))
	}
}

// dimScratch lets Verify take single-dim subslices without allocating
// per call.
var dimScratch = [4]int{0, 1, 2, 3}
