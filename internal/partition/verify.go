package partition

import (
	"errors"
	"fmt"
	"slices"

	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// linkRecord is the wire size of one verified link: the sender's gid,
// its handle and the peer's handle (packed), and its owner.
const linkRecord = 8 + 4 + 4 + 4

// Verify is the distributed verifier — PUMI's verify() — and returns the
// first violation found on this rank (collective; every rank must call
// it, and every rank fails if any does). Parallel test paths, the tools
// and the benchmark cycles end with it. It runs in three steps:
//
//  1. One local sweep per part: CheckConsistency (a ghost element
//     links to its owner alone, a lower ghost nowhere); over the
//     boundary table, links name other parts inside [0, NParts) and,
//     below the elements, no boundary entity is an orphan and a shared
//     entity's closure is shared with the same parts. An owner needs no
//     local check: outside a ghost it is the least part of the
//     residence, derived from the links.
//  2. One part-addressed exchange: for every link, ghost links too,
//     each side sends its gid, its own handle, the peer's handle and
//     its owner, and the receiver checks that its copy is live, links
//     back, agrees on type, gid and owner — so the copies agree on the
//     least part of their residence — and is a ghost exactly when the
//     link is an element's and the sender owns it. The sync plans are
//     checked in the same walk: the sender holds each cached
//     per-dimension send run against the owned links it packs in handle
//     order, the receiver each recv run against the owner's records in
//     arrival order — the order contract of plan.go.
//  3. One Allreduce, so that a clean rank fails when a peer did.
func Verify(dm *DMesh) error {
	v := &verifier{dm: dm, ph: dm.beginPhase()}
	for _, part := range dm.Parts {
		v.sweep(part.M)
	}
	// A link to a part outside [0, NParts) has no rank to compile a plan
	// toward; a rank holding one has failed already and checks no plans.
	var plans [4]*BoundaryPlan // the elements' stays nil
	if !v.unknownPart {
		for d := 0; d < dm.Dim; d++ {
			plans[d] = dm.plan(dimsKey{1 << d, dirSync})
		}
	}
	v.pack(&plans)
	v.receive(&plans)
	anyErr := pcu.Allreduce(dm.Ctx, v.err != nil, func(a, b bool) bool { return a || b })
	if v.err == nil && anyErr {
		return errors.New("partition: a peer rank found distributed inconsistencies")
	}
	return v.err
}

// verifier is the state of one Verify call.
type verifier struct {
	dm  *DMesh
	ph  *phase
	err error // the first violation found on this rank

	unknownPart bool  // a link names a part outside [0, NParts)
	sent        []int // per send peer of one plan run, the links packed so far
}

func (v *verifier) record(err error) {
	if v.err == nil && err != nil {
		v.err = err
	}
}

// linkable reports whether q can hold a copy of an entity of part p.
func (v *verifier) linkable(p, q int32) bool {
	return q != p && q >= 0 && int(q) < v.dm.NParts()
}

// exchanged reports whether e's links are sent: a lower ghost's are
// CheckConsistency's to report.
func (v *verifier) exchanged(m *mesh.Mesh, e mesh.Ent, d int) bool {
	return m.HasRemotes(e) && (d == v.dm.Dim || !m.IsGhost(e))
}

// sweep runs the checks that need no peer on one part, walking its
// boundary table, and counts the bytes its link records take per peer.
func (v *verifier) sweep(m *mesh.Mesh) {
	v.dm.Ctx.Count("mesh.consistency-checks", 1)
	v.record(m.CheckConsistency())
	p := m.Part()
	var down []mesh.Ent
	for d := 0; d <= v.dm.Dim; d++ {
		shared := d < v.dm.Dim // element links are ghost links
		for e := range m.BoundaryTable(d) {
			if !v.exchanged(m, e, d) {
				continue
			}
			if shared && !m.HasUp(e) {
				v.record(fmt.Errorf("partition: shared %v on part %d bounds nothing (orphan boundary entity)", e, p))
			}
			down = down[:0]
			if shared {
				down = m.DownTo(e, down)
			}
			m.EachRemote(e, func(q int32, _ mesh.Ent) bool {
				switch {
				case q == p:
					v.record(fmt.Errorf("partition: %v on part %d lists its own part as a remote", e, p))
				case !v.linkable(p, q):
					v.unknownPart = true
					v.record(fmt.Errorf("partition: %v on part %d linked to unknown part %d", e, p, q))
				default:
					v.ph.count(p, q, linkRecord)
					for _, de := range down {
						if _, ok := m.RemoteCopy(de, q); !ok {
							v.record(fmt.Errorf("partition: %v shared with part %d but its bounding %v is not", e, q, de))
						}
					}
				}
				return true
			})
		}
	}
}

// pack writes one record per link of every part, dimension by
// dimension in handle order, and holds each owned link below the
// elements against the part's cached sync send run toward its peer.
func (v *verifier) pack(plans *[4]*BoundaryPlan) {
	for li, part := range v.dm.Parts {
		m, p := part.M, part.M.Part()
		for d := 0; d <= v.dm.Dim; d++ {
			var pp *partPlan
			if plans[d] != nil {
				pp = &plans[d].parts[li]
				v.sent = append(v.sent[:0], make([]int, len(pp.sendPeers))...)
			}
			for e := range m.BoundaryTable(d) {
				if !v.exchanged(m, e, d) {
					continue
				}
				gid, owner := part.Gid(e), m.Owner(e)
				m.EachRemote(e, func(q int32, h mesh.Ent) bool {
					if !v.linkable(p, q) {
						return true // the sweep reported it
					}
					b := v.ph.to(p, q)
					b.Int64(gid)
					b.Int32(int32(e.Pack()))
					b.Int32(int32(h.Pack()))
					b.Int32(owner)
					if pp != nil && owner == p {
						v.planSend(pp, d, p, q, e)
					}
					return true
				})
			}
			if pp == nil {
				continue
			}
			for pi, q := range pp.sendPeers {
				if want := int(pp.sendOff[pi+1] - pp.sendOff[pi]); v.sent[pi] != want {
					v.record(fmt.Errorf("partition: dim-%d sync plan mismatch: part %d owns %d links to part %d, its plan sends %d",
						d, p, v.sent[pi], q, want))
				}
			}
		}
	}
}

// planSend holds one owned link (e on part p, copied on part q) against
// the next slot of the cached send run toward q.
func (v *verifier) planSend(pp *partPlan, d int, p, q int32, e mesh.Ent) {
	pi, ok := slices.BinarySearch(pp.sendPeers, q)
	if !ok {
		v.record(fmt.Errorf("partition: dim-%d sync plan mismatch: part %d owns links to part %d, its plan sends none", d, p, q))
		return
	}
	run := pp.sendEnts[pp.sendOff[pi]:pp.sendOff[pi+1]]
	if k := v.sent[pi]; k < len(run) && run[k] != e {
		v.record(fmt.Errorf("partition: dim-%d sync plan order mismatch at slot %d of part %d->part %d", d, k, p, q))
	}
	v.sent[pi]++
}

// receive checks every arriving record against the local copy and the
// owner's records against the cached sync recv runs.
func (v *verifier) receive(plans *[4]*BoundaryPlan) {
	dm := v.dm
	for _, msg := range v.ph.exchange() {
		part := dm.LocalPart(msg.To)
		var runs [4][]mesh.Ent
		var got [4]int
		for d, pl := range plans {
			if pl == nil {
				continue
			}
			pp := &pl.parts[dm.localIndex(msg.To)]
			if j := pp.recvPeerIndex(msg.From); j >= 0 {
				runs[d] = pp.recvEnts[pp.recvOff[j]:pp.recvOff[j+1]]
			}
		}
		for !msg.Data.Empty() {
			gid := msg.Data.Int64()
			theirs := mesh.UnpackEnt(uint32(msg.Data.Int32()))
			mine := mesh.UnpackEnt(uint32(msg.Data.Int32()))
			owner := msg.Data.Int32()
			v.checkCopy(part, msg.From, msg.To, gid, theirs, mine, owner)
			if d := theirs.Dim(); plans[d] != nil && owner == msg.From {
				if k := got[d]; k < len(runs[d]) && runs[d][k] != mine {
					v.record(fmt.Errorf("partition: dim-%d sync plan order mismatch at slot %d of part %d<-part %d",
						d, k, msg.To, msg.From))
				}
				got[d]++
			}
		}
		for d, pl := range plans {
			if pl != nil && got[d] != len(runs[d]) {
				v.record(fmt.Errorf("partition: dim-%d sync plan mismatch: part %d sends %d entities to part %d, which expects %d",
					d, msg.From, got[d], msg.To, len(runs[d])))
			}
		}
	}
}

// checkCopy checks the local copy mine that part from's entity theirs
// names on part to.
func (v *verifier) checkCopy(part *Part, from, to int32, gid int64, theirs, mine mesh.Ent, owner int32) {
	m := part.M
	switch {
	case !m.Alive(mine):
		v.record(fmt.Errorf("partition: part %d claims dead copy %v on part %d (gid %d)", from, mine, to, gid))
		return
	case m.IsGhost(mine) != (mine.Dim() == v.dm.Dim && owner == from):
		v.record(fmt.Errorf("partition: part %d links its %v (owner %d) to %v on part %d, ghost %v",
			from, theirs, owner, mine, to, m.IsGhost(mine)))
		return
	case mine.T != theirs.T:
		v.record(fmt.Errorf("partition: part %d links its %v to %v on part %d", from, theirs, mine, to))
		return
	}
	if back, ok := m.RemoteCopy(mine, from); !ok {
		v.record(fmt.Errorf("partition: part %d lacks the back link to part %d for %v", to, from, mine))
	} else if back != theirs {
		v.record(fmt.Errorf("partition: asymmetric link on part %d: %v points to %v on part %d, peer says %v",
			to, mine, back, from, theirs))
	}
	if got := part.Gid(mine); got != gid {
		v.record(fmt.Errorf("partition: gid mismatch on part %d: %v has %d, part %d says %d", to, mine, got, from, gid))
	}
	if m.Owner(mine) != owner {
		v.record(fmt.Errorf("partition: owner disagreement for %v on part %d: local %d, part %d says %d",
			mine, to, m.Owner(mine), from, owner))
	}
}
