package pcu

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestSurvivableWorldRevokedOnVanish(t *testing.T) {
	// Rank 1 dies entering a Barrier; the survivors are parked in the
	// world barrier, which nothing can release. In a survivable world
	// the watchdog must revoke — every survivor unwinds with the
	// same *RevokedError naming the dead rank — instead of reporting an
	// undiagnosed stall.
	plan := &FaultPlan{Faults: []Fault{{Rank: 1, Op: 2, Kind: FaultVanish}}}
	_, err := runOpt(4, Options{
		Faults:       plan,
		StallTimeout: 2 * time.Second,
	}, true, collectiveLoop(4))
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
	// The same death in a plain world keeps the pre-ULFM contract:
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
	if first.Attempt != 0 || first.Size != 4 || first.Failed != nil {
		t.Fatalf("bad first epoch: %+v", first)
	}
	if second.Attempt != 1 || second.Size != 3 || !slices.Equal(second.Failed, []int{1}) {
		t.Fatalf("bad recovery epoch: %+v", second)
	}
}

func TestSuperviseTwoDeathsOneRevocation(t *testing.T) {
	// Ranks 1 and 3 both vanish in attempt 0. A vanished rank blocks
	// every later barrier, so both die entering the same op (op 2), but
	// rank 3 computes for several watchdog polls first: the two deaths
	// show up in different snapshots, and the revocation must still
	// name both. Attempt 1 then runs on the 2 survivors and finishes.
	plan := &FaultPlan{Faults: []Fault{
		{Rank: 1, Op: 2, Kind: FaultVanish},
		{Rank: 3, Op: 2, Kind: FaultVanish},
	}}
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
		SumInt64(c, 1) // op 1
		if ep.Attempt == 0 && c.Rank() == 3 {
			time.Sleep(600 * time.Millisecond) // past two 250 ms polls
		}
		for i := 0; i < 3; i++ {
			if got := SumInt64(c, 1); got != int64(ep.Size) {
				return fmt.Errorf("rank %d: sum %d on %d ranks", c.Rank(), got, ep.Size)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("supervised run should recover: %v", err)
	}
	if len(epochs) != 2 {
		t.Fatalf("want 2 attempts, got %d: %+v", len(epochs), epochs)
	}
	if ep := epochs[1]; ep.Attempt != 1 || ep.Size != 2 || !slices.Equal(ep.Failed, []int{1, 3}) {
		t.Fatalf("bad recovery epoch: %+v", ep)
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
