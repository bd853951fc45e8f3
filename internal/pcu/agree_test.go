package pcu

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestAgreeHealthyWorld(t *testing.T) {
	// With every rank alive, Agree is an AND-reduction with an empty
	// conviction list, consistent on all ranks.
	if err := Run(4, func(c *Ctx) error {
		ok, failed := Agree(c, true)
		if !ok || len(failed) != 0 {
			return fmt.Errorf("rank %d: unanimous true vote got (%v, %v)", c.Rank(), ok, failed)
		}
		ok, failed = Agree(c, c.Rank() != 2)
		if ok || len(failed) != 0 {
			return fmt.Errorf("rank %d: dissenting vote got (%v, %v)", c.Rank(), ok, failed)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAgreeCompletesOverVanishedRank(t *testing.T) {
	// Rank 2 dies entering the Agree itself (its op 2). The survivors
	// park in the agreement gate; the watchdog convicts the vanished
	// rank, the threshold drops, and the round closes with a verdict
	// naming the dead — the run finishes cleanly without teardown.
	plan := &FaultPlan{Faults: []Fault{{Rank: 2, Op: 2, Kind: FaultVanish}}}
	var mu sync.Mutex
	verdicts := map[int][]int{}
	_, err := RunOpt(4, Options{
		Faults:       plan,
		Survivable:   true,
		StallTimeout: 2 * time.Second,
	}, func(c *Ctx) error {
		c.Barrier()                  // op 1
		ok, failed := Agree(c, true) // op 2; rank 2 vanishes here
		if !ok {
			return fmt.Errorf("rank %d: surviving votes were all true, got verdict false", c.Rank())
		}
		mu.Lock()
		verdicts[c.Rank()] = failed
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("survivors should complete the run: %v", err)
	}
	if len(verdicts) != 3 {
		t.Fatalf("want verdicts from 3 survivors, got %d", len(verdicts))
	}
	for r, failed := range verdicts {
		if !slices.Equal(failed, []int{2}) {
			t.Fatalf("rank %d: want conviction [2], got %v", r, failed)
		}
	}
}

func TestSurvivableWorldRevokedOnVanish(t *testing.T) {
	// Rank 1 dies entering a Barrier; the survivors are parked in the
	// world barrier, which no agreement can release. In a Survivable
	// world the watchdog must revoke — every survivor unwinds with the
	// same *RevokedError naming the dead rank — instead of reporting an
	// undiagnosed stall.
	plan := &FaultPlan{Faults: []Fault{{Rank: 1, Op: 2, Kind: FaultVanish}}}
	_, err := RunOpt(4, Options{
		Faults:       plan,
		Survivable:   true,
		StallTimeout: 2 * time.Second,
	}, collectiveLoop(4))
	var rev *RevokedError
	if !errors.As(err, &rev) {
		t.Fatalf("want *RevokedError, got %v", err)
	}
	if !errors.Is(err, ErrRevoked) {
		t.Fatalf("revocation should wrap ErrRevoked: %v", err)
	}
	if !slices.Equal(rev.Failed, []int{1}) {
		t.Fatalf("want failed ranks [1], got %v", rev.Failed)
	}
}

func TestNonSurvivableWorldStallsOnVanish(t *testing.T) {
	// The same death without Survivable keeps the pre-ULFM contract:
	// the watchdog diagnoses a stall, not a revocation.
	plan := &FaultPlan{Faults: []Fault{{Rank: 1, Op: 2, Kind: FaultVanish}}}
	_, err := RunOpt(4, Options{
		Faults:       plan,
		StallTimeout: 2 * time.Second,
	}, collectiveLoop(4))
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("want ErrStalled, got %v", err)
	}
	if errors.Is(err, ErrRevoked) {
		t.Fatalf("non-survivable world must not revoke: %v", err)
	}
}

func TestStallErrorReportsSinceProgress(t *testing.T) {
	// The stall diagnosis carries per-rank time-since-last-progress so a
	// report distinguishes a slow rank from a dead one.
	plan := &FaultPlan{Faults: []Fault{{Rank: 1, Op: 2, Kind: FaultVanish}}}
	_, err := RunOpt(4, Options{
		Faults:       plan,
		StallTimeout: 500 * time.Millisecond,
	}, collectiveLoop(4))
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *StallError, got %v", err)
	}
	idle := 0
	for _, r := range stall.Ranks {
		if r.SinceProgress > 0 {
			idle++
		}
	}
	if idle == 0 {
		t.Fatalf("no rank reports time since progress:\n%v", err)
	}
}

func TestSuperviseShrinksAndCompletes(t *testing.T) {
	// Attempt 0 loses rank 1 to a permanent death; Supervise catches the
	// revocation and re-runs the body on the 3 survivors, fault-free.
	plan := &FaultPlan{Faults: []Fault{{Rank: 1, Op: 2, Kind: FaultVanish}}}
	var mu sync.Mutex
	var epochs []Epoch
	_, err := Supervise(4, Options{
		Faults:       plan,
		StallTimeout: 2 * time.Second,
	}, nil, func(c *Ctx, ep Epoch) error {
		if c.Rank() == 0 {
			mu.Lock()
			epochs = append(epochs, ep)
			mu.Unlock()
		}
		for i := 0; i < 4; i++ {
			SumInt64(c, int64(c.Rank()))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("supervised run should recover: %v", err)
	}
	if len(epochs) != 2 {
		t.Fatalf("want 2 attempts, got %d: %+v", len(epochs), epochs)
	}
	first, second := epochs[0], epochs[1]
	if first.Attempt != 0 || first.Size != 4 || first.Initial != 4 || first.Failed != nil {
		t.Fatalf("bad first epoch: %+v", first)
	}
	if second.Attempt != 1 || second.Size != 3 || second.Initial != 4 || !slices.Equal(second.Failed, []int{1}) {
		t.Fatalf("bad recovery epoch: %+v", second)
	}
}

func TestSuperviseNextSizeHook(t *testing.T) {
	// The supervisor's size hook shrinks further than the survivor count
	// (a mesh-aware caller rounds down to a divisor of its part count).
	plan := &FaultPlan{Faults: []Fault{{Rank: 3, Op: 1, Kind: FaultVanish}}}
	sizes := make(chan int, 8)
	_, err := Supervise(4, Options{
		Faults:       plan,
		StallTimeout: 2 * time.Second,
	}, func(survivors int) int {
		if survivors != 3 {
			t.Errorf("want 3 survivors, got %d", survivors)
		}
		return 2
	}, func(c *Ctx, ep Epoch) error {
		if c.Rank() == 0 {
			sizes <- ep.Size
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatalf("supervised run should recover: %v", err)
	}
	close(sizes)
	var got []int
	for s := range sizes {
		got = append(got, s)
	}
	if !slices.Equal(got, []int{4, 2}) {
		t.Fatalf("want attempt sizes [4 2], got %v", got)
	}
}

func TestSupervisePassesThroughOtherFailures(t *testing.T) {
	// A non-revocation failure (an injected panic) must not trigger
	// recovery: Supervise returns it unchanged.
	plan := &FaultPlan{Faults: []Fault{{Rank: 0, Op: 1, Kind: FaultPanic}}}
	attempts := 0
	_, err := Supervise(2, Options{
		Faults:       plan,
		StallTimeout: 2 * time.Second,
	}, nil, func(c *Ctx, ep Epoch) error {
		if c.Rank() == 0 {
			attempts++
		}
		c.Barrier()
		return nil
	})
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("want the injected panic surfaced, got %v", err)
	}
	if attempts != 1 {
		t.Fatalf("panic must not be retried: %d attempts", attempts)
	}
}
