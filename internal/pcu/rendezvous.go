package pcu

import (
	"errors"
	"fmt"
)

// The rendezvous check. Every rank of a run must enter the same
// blocking op in the same order; each barrier arrival records the op
// its rank is in (its entry), and the last arriver compares them
// before it releases anyone. A mismatch fails the run with a
// *MismatchError instead of letting ranks read slots or inboxes that
// peers in another op filled — the silent wrong result (SumInt64 met
// by MaxInt64) or the data race (Allreduce met by Exchange) a skewed
// schedule otherwise gives.

// ErrMismatch is matched by every *MismatchError.
var ErrMismatch = errors.New("pcu: ranks met in different ops")

// MismatchError reports that the ranks arrived at one barrier from
// different ops. Peer is the lowest rank whose op differs from rank
// Rank's (always rank 0); Index and PeerIndex are the two ops' Ops()
// counts. The text depends only on the two ranks' schedules, so a
// rerun reports it identically.
type MismatchError struct {
	Rank, Peer       int
	Op, PeerOp       string
	Index, PeerIndex int64
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("pcu: ranks met in different ops: rank %d entered %s (op %d), rank %d entered %s (op %d)",
		e.Rank, e.Op, e.Index, e.Peer, e.PeerOp, e.PeerIndex)
}

// Is makes errors.Is(err, ErrMismatch) match.
func (e *MismatchError) Is(target error) bool { return target == ErrMismatch }

// Interned barrier identities of the named reductions. A rank's op
// identity is its op name (entry.name, what traces and stall reports
// print) except in these, so SumInt64 does not meet MaxInt64; a generic
// Allreduce with a caller's func is plain opAllreduce.
var (
	idSumInt64   = "allreduce(SumInt64)"
	idMaxInt64   = "allreduce(MaxInt64)"
	idMinInt64   = "allreduce(MinInt64)"
	idSumFloat64 = "allreduce(SumFloat64)"
	idMaxFloat64 = "allreduce(MaxFloat64)"
)

// entry is what a rank records when it arrives at the barrier: the op
// it is in and that op's Ops() count.
type entry struct {
	id   *string // interned: ranks in the same op hold the same pointer
	name *string // the op's name: id without a named reduction's combiner
	op   int64
}

// mismatch compares every rank's entry with rank 0's and reports the
// lowest rank that differs, or nil when all ranks are in the same op.
func mismatch(entries []entry) error {
	first := entries[0]
	for r, e := range entries[1:] {
		if e.id != first.id {
			return &MismatchError{
				Rank: 0, Peer: r + 1,
				Op: *first.id, PeerOp: *e.id,
				Index: first.op, PeerIndex: e.op,
			}
		}
	}
	return nil
}
