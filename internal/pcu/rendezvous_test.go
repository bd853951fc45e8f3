package pcu

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// Tests of the rendezvous check: ranks that meet at a barrier from
// different ops fail the run with a *MismatchError. Every run here is
// plain — the check is not a sanitizer feature.

// mismatchOf runs body on n ranks and returns its *MismatchError.
func mismatchOf(t *testing.T, n int, body func(*Ctx) error) *MismatchError {
	t.Helper()
	_, err := RunOpt(n, Options{}, body)
	var mm *MismatchError
	if !errors.Is(err, ErrMismatch) || !errors.As(err, &mm) {
		t.Fatalf("want a *MismatchError, got %v", err)
	}
	return mm
}

// TestSanitizeDivergence: rank 0 in a Barrier meets rank 1 in an
// Allreduce at their second op; the error names both ranks, both ops
// and the op index.
func TestSanitizeDivergence(t *testing.T) {
	mm := mismatchOf(t, 2, func(c *Ctx) error {
		c.Barrier() // op 1: uniform
		//pumi-vet:ignore collseq // deliberate divergence: the rendezvous check must catch it
		if c.Rank() == 0 {
			c.Barrier() // op 2: rank 0 enters barrier...
		} else {
			Allreduce(c, 1, func(a, b int) int { return a + b }) // ...while rank 1 enters allreduce
		}
		return nil
	})
	want := MismatchError{Rank: 0, Peer: 1, Op: "barrier", PeerOp: "allreduce", Index: 2, PeerIndex: 2}
	if *mm != want {
		t.Fatalf("got %+v, want %+v", *mm, want)
	}
	const text = "pcu: ranks met in different ops: rank 0 entered barrier (op 2), rank 1 entered allreduce (op 2)"
	if mm.Error() != text {
		t.Fatalf("text %q, want %q", mm.Error(), text)
	}
}

// TestMismatchedReductions: the named reductions carry their combiner,
// so SumInt64 does not meet MaxInt64 — nor a generic Allreduce.
func TestMismatchedReductions(t *testing.T) {
	mm := mismatchOf(t, 2, func(c *Ctx) error {
		//pumi-vet:ignore collseq // deliberate divergence: the rendezvous check must catch it
		if c.Rank() == 0 {
			SumInt64(c, 1)
		} else {
			MaxInt64(c, 1)
		}
		return nil
	})
	if mm.Op != "allreduce(SumInt64)" || mm.PeerOp != "allreduce(MaxInt64)" {
		t.Fatalf("ops %q vs %q", mm.Op, mm.PeerOp)
	}
	mm = mismatchOf(t, 2, func(c *Ctx) error {
		//pumi-vet:ignore collseq // deliberate divergence: the rendezvous check must catch it
		if c.Rank() == 0 {
			MaxFloat64(c, 1)
		} else {
			Allreduce(c, 1.0, func(a, b float64) float64 { return max(a, b) })
		}
		return nil
	})
	if mm.Op != "allreduce(MaxFloat64)" || mm.PeerOp != "allreduce" {
		t.Fatalf("ops %q vs %q", mm.Op, mm.PeerOp)
	}
}

// TestSanitizeDivergenceDeterministic: the diagnosis depends only on
// the schedules, not on which rank arrived last — reruns of a 3-rank
// body produce the identical error text.
func TestSanitizeDivergenceDeterministic(t *testing.T) {
	body := func(c *Ctx) error {
		SumInt64(c, 1)
		//pumi-vet:ignore collseq // deliberate divergence: the rendezvous check must catch it
		if c.Rank() == 2 {
			c.Barrier()
		} else {
			Bcast(c, 0, 7)
		}
		return nil
	}
	const want = "pcu: ranks met in different ops: rank 0 entered bcast (op 2), rank 2 entered barrier (op 2)"
	for i := 0; i < 10; i++ {
		if got := mismatchOf(t, 3, body).Error(); got != want {
			t.Fatalf("run %d: %q, want %q", i, got, want)
		}
	}
}

// TestMismatchOnBothBarrierPaths: the check fires whether the waiters
// spin (2 ranks) or park at once (4 × GOMAXPROCS ranks), and whichever
// rank arrives last.
func TestMismatchOnBothBarrierPaths(t *testing.T) {
	atLeastProcs(t, 2)
	for _, tc := range []struct {
		name string
		n    int
		spin bool
	}{
		{"spin", 2, true},
		{"oversubscribed", 4 * runtime.GOMAXPROCS(0), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for odd := range tc.n {
				mm := mismatchOf(t, tc.n, func(c *Ctx) error {
					if c.w.bar.spin != tc.spin {
						return fmt.Errorf("%d ranks on %d procs: spin = %v", tc.n, runtime.GOMAXPROCS(0), c.w.bar.spin)
					}
					for range 3 {
						SumInt64(c, 1)
						c.Exchange()
					}
					//pumi-vet:ignore collseq // deliberate divergence: the rendezvous check must catch it
					if c.Rank() == odd {
						c.Exchange()
					} else {
						c.Barrier()
					}
					return nil
				})
				op, peer := "barrier", max(odd, 1)
				if odd == 0 {
					op = "exchange"
				}
				if mm.Peer != peer || mm.Op != op || mm.Index != 7 || mm.PeerIndex != 7 {
					t.Fatalf("odd rank %d: got %v", odd, mm)
				}
			}
		})
	}
}

// TestMismatchReadsNoSlot: an Exchange met by a SumInt64 fails before
// either rank reads the other's slot or inbox. Under -race, 50 runs of
// the swapped body give no report.
func TestMismatchReadsNoSlot(t *testing.T) {
	atLeastProcs(t, 2)
	for range 50 {
		mismatchOf(t, 2, func(c *Ctx) error {
			//pumi-vet:ignore collseq // deliberate divergence: the rendezvous check must catch it
			if c.Rank() == 1 {
				c.To(0).Int64(1)
				c.Exchange()
				SumInt64(c, 1)
			} else {
				SumInt64(c, 1)
				c.Exchange()
			}
			return nil
		})
	}
}
