package pcu

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests of the spin-then-park barrier. A waiter that is not last polls
// the generation for up to spinBudget before it parks, but only when
// every rank has a processor of its own; these tests pin that both
// paths publish plain writes and that a spinning waiter still answers
// to teardown and to the watchdog.

// atLeastProcs raises GOMAXPROCS to n for the test, so a world of n
// ranks takes the spin path even on a one-processor runner.
func atLeastProcs(t *testing.T, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// awaitArrivals spins until n ranks have arrived at the barrier's
// current generation, so the caller strikes while they spin.
func awaitArrivals(c *Ctx, n int) {
	for parked, _ := c.w.bar.state(); parked < n; parked, _ = c.w.bar.state() {
		runtime.Gosched()
	}
}

// TestBarrierPublishesPlainWrites: a plain write made before Barrier,
// Allreduce or Exchange is read by the next rank after it, on the spin
// path (2 ranks) and the park-at-once path (4 × GOMAXPROCS ranks). Run
// under -race this checks the happens-before edge, not just the value.
// Slots are double-buffered by round parity: a rank overwrites a slot
// only after the following op, which its reader enters after reading.
func TestBarrierPublishesPlainWrites(t *testing.T) {
	atLeastProcs(t, 2)
	const rounds = 10000
	for _, tc := range []struct {
		name string
		n    int
		spin bool
	}{
		{"spin", 2, true},
		{"oversubscribed", 4 * runtime.GOMAXPROCS(0), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.n
			slots := [2][]int{make([]int, n), make([]int, n)}
			err := Run(n, func(c *Ctx) error {
				if c.w.bar.spin != tc.spin {
					return fmt.Errorf("%d ranks on %d procs: spin = %v", n, runtime.GOMAXPROCS(0), c.w.bar.spin)
				}
				me, prev := c.Rank(), (c.Rank()+n-1)%n
				for i := 0; i < rounds; i++ {
					s := slots[i%2]
					s[me] = i*n + me
					switch i % 3 {
					case 0:
						c.Barrier()
					case 1:
						SumInt64(c, 1)
					case 2:
						c.Exchange()
					}
					if got := s[prev]; got != i*n+prev {
						return fmt.Errorf("round %d: rank %d read %d from rank %d, want %d", i, me, got, prev, i*n+prev)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPeerPanicReleasesSpinningWaiter: rank 1 panics right after rank 0
// arrives at a Barrier, inside rank 0's spin budget; rank 0 must unwind
// with ErrPeerFailed rather than spin or park forever.
func TestPeerPanicReleasesSpinningWaiter(t *testing.T) {
	atLeastProcs(t, 2)
	plan := &FaultPlan{Faults: []Fault{{Rank: 1, Op: 2, Kind: FaultPanic}}}
	var peer any
	_, err := RunOpt(2, Options{Faults: plan}, func(c *Ctx) error {
		c.Barrier()
		if c.Rank() == 1 {
			awaitArrivals(c, 1)
			c.Barrier() // op 2: struck
			return nil
		}
		defer func() {
			if p := recover(); p != nil {
				peer = p
				panic(p)
			}
		}()
		c.Barrier()
		return nil
	})
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("want ErrFaultInjected, got %v", err)
	}
	if pe, ok := peer.(error); !ok || !errors.Is(pe, ErrPeerFailed) {
		t.Fatalf("spinning peer unwound with %v, want ErrPeerFailed", peer)
	}
}

// TestVanishWhileSpinningDiagnosed: rank 1 vanishes right after rank 0
// arrives at a Barrier. The spinning rank counts as blocked and
// arrived, so the watchdog still proves the deadlock: a *StallError,
// or a *RevokedError naming rank 1 in a survivable world.
func TestVanishWhileSpinningDiagnosed(t *testing.T) {
	atLeastProcs(t, 2)
	for _, survivable := range []bool{false, true} {
		t.Run(fmt.Sprintf("survivable=%v", survivable), func(t *testing.T) {
			plan := &FaultPlan{Faults: []Fault{{Rank: 1, Op: 2, Kind: FaultVanish}}}
			_, err := runOpt(2, Options{Faults: plan, StallTimeout: 2 * time.Second}, survivable, func(c *Ctx) error {
				c.Barrier()
				if c.Rank() == 1 {
					awaitArrivals(c, 1)
				}
				c.Barrier() // op 2: rank 1 vanishes
				return nil
			})
			if survivable {
				var rev *RevokedError
				if !errors.As(err, &rev) || len(rev.Failed) != 1 || rev.Failed[0] != 1 {
					t.Fatalf("want *RevokedError naming rank 1, got %v", err)
				}
			} else {
				var stall *StallError
				if !errors.As(err, &stall) {
					t.Fatalf("want *StallError, got %v", err)
				}
				// A certain deadlock, not a timeout: the watchdog counted
				// the spinning rank as arrived and blocked.
				if r := stall.Ranks[0]; !strings.HasPrefix(stall.Reason, "deadlock") || !r.Blocked || r.Op != opBarrier {
					t.Fatalf("want a deadlock with rank 0 blocked in barrier, got:\n%v", err)
				}
			}
		})
	}
}
