package partition

import (
	"errors"
	"fmt"
	"slices"

	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// CheckDistributed verifies the distributed mesh invariants and returns
// the first violation found on this rank (collective; every rank must
// call it):
//
//   - every part passes mesh.CheckConsistency;
//   - elements are never shared;
//   - remote-copy symmetry: if part P records a copy of e on Q with
//     handle h, then Q holds a live h whose global id matches and whose
//     remotes point back at (P, e);
//   - ownership agreement: all copies record the same owning part, and
//     the owner is one of the residence parts;
//   - compiled boundary plans agree across parts.
func CheckDistributed(dm *DMesh) error { return checkDistributed(dm, true) }

// checkDistributed is CheckDistributed; without local it leaves out the
// checks that need no peer — the first two and the owner's place in the
// residence — for a caller that runs them anyway (Verify, through
// mesh.VerifyParallel).
func checkDistributed(dm *DMesh, local bool) error {
	var firstErr error
	record := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	if local {
		for _, part := range dm.Parts {
			m := part.M
			dm.Ctx.Count("mesh.consistency-checks", 1)
			record(m.CheckConsistency())
			for el := range m.Elements() {
				if m.IsShared(el) {
					record(fmt.Errorf("partition: element %v on part %d is shared", el, m.Part()))
					break
				}
			}
		}
	}

	// Remote symmetry + owner agreement.
	ph := dm.beginPhase()
	for _, part := range dm.Parts {
		m := part.M
		for d := 0; d < dm.Dim; d++ {
			for e := range m.PartBoundary(d) {
				m.EachRemote(e, func(q int32, h mesh.Ent) bool {
					b := ph.to(m.Part(), q)
					b.Byte(byte(d))
					b.Int64(part.Gid(e))
					b.Byte(byte(h.T))
					b.Int32(h.I)
					b.Byte(byte(e.T))
					b.Int32(e.I)
					b.Int32(m.Owner(e))
					return true
				})
			}
		}
	}
	for _, msg := range ph.exchange() {
		part := dm.LocalPart(msg.To)
		m := part.M
		for !msg.Data.Empty() {
			d := int(msg.Data.Byte())
			gid := msg.Data.Int64()
			mine := mesh.Ent{T: mesh.Type(msg.Data.Byte()), I: msg.Data.Int32()}
			theirs := mesh.Ent{T: mesh.Type(msg.Data.Byte()), I: msg.Data.Int32()}
			owner := msg.Data.Int32()
			if !m.Alive(mine) {
				record(fmt.Errorf("partition: part %d claims dead copy %v on part %d (gid %d)",
					msg.From, mine, msg.To, gid))
				continue
			}
			if got := part.Gid(mine); got != gid {
				record(fmt.Errorf("partition: gid mismatch on part %d: %v has %d, peer says %d",
					msg.To, mine, got, gid))
			}
			if mine.Dim() != d {
				record(fmt.Errorf("partition: dim mismatch for gid %d on part %d", gid, msg.To))
			}
			back, ok := m.RemoteCopy(mine, msg.From)
			if !ok {
				record(fmt.Errorf("partition: part %d lacks the back link to %d for %v",
					msg.To, msg.From, mine))
			} else if back != theirs {
				record(fmt.Errorf("partition: back link mismatch on part %d: %v vs %v",
					msg.To, back, theirs))
			}
			if m.Owner(mine) != owner {
				record(fmt.Errorf("partition: owner disagreement for gid %d: part %d says %d, part %d says %d",
					gid, msg.To, m.Owner(mine), msg.From, owner))
			}
		}
	}

	if local { // owner must be a residence part
		var res []int32 // residence scratch
		for _, part := range dm.Parts {
			m := part.M
			for d := 0; d < dm.Dim; d++ {
				for e := range m.PartBoundary(d) {
					res = m.AppendResidence(e, res[:0])
					if !slices.Contains(res, m.Owner(e)) {
						record(fmt.Errorf("partition: owner %d of %v on part %d outside residence",
							m.Owner(e), e, m.Part()))
					}
				}
			}
		}
	}

	// Compiled boundary plans must agree across parts too (collective).
	checkPlans(dm, record)

	// Surface whether any rank failed so tests can assert collectively.
	anyErr := pcu.Allreduce(dm.Ctx, firstErr != nil, func(a, b bool) bool { return a || b })
	if firstErr == nil && anyErr {
		return errors.New("partition: a peer rank found distributed inconsistencies")
	}
	return firstErr
}
