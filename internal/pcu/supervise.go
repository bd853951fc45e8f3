package pcu

import (
	"errors"
	"fmt"
)

// Surviving rank death. A plain world answers every failure with total
// teardown: one dead rank poisons the barrier and every survivor exits
// with ErrPeerFailed, or — when the rank vanished without a panic — the
// barrier diagnoses a stall. Supervise instead runs its body in a
// survivable world, where the barrier answers a vanished rank that
// blocks the survivors by revoking the world: every survivor unwinds
// with the same *RevokedError naming the dead, and Supervise re-runs
// the body on a shrunken world with stable re-numbered ranks, until it
// completes or a non-revocation failure surfaces.

// ErrRevoked is wrapped by every world revocation: the structured
// teardown of a survivable run whose ranks vanished, in place of an
// undiagnosed stall.
var ErrRevoked = errors.New("pcu: world revoked")

// RevokedError names the ranks that had vanished when a survivable
// world was revoked. Every surviving rank observes the same error; a
// supervisor uses Failed to build the shrunken successor world.
type RevokedError struct {
	Failed []int // vanished ranks, run numbering, sorted ascending
}

func (e *RevokedError) Error() string {
	return fmt.Sprintf("pcu: world revoked: failed ranks %v", e.Failed)
}

func (e *RevokedError) Unwrap() error { return ErrRevoked }

// Epoch identifies one attempt of a supervised run.
type Epoch struct {
	// Attempt counts revocations survived so far: 0 for the first
	// attempt, 1 after the first shrink, and so on.
	Attempt int
	// Size is this attempt's world size.
	Size int
	// Failed lists the ranks that had vanished when the previous
	// attempt was revoked, in the previous attempt's numbering; nil on
	// attempt 0.
	Failed []int
}

// Supervise is the self-healing run loop: it executes body on n ranks
// under opt in a survivable world, and when the world is revoked — the
// barrier found vanished ranks blocking the survivors and every
// survivor unwound with the same *RevokedError — it rebuilds a smaller
// world over the survivors and runs body again with the next Epoch,
// until body completes or fails for a non-revocation reason.
//
// nextSize, when non-nil, chooses each rebuilt world's rank count from
// the survivor count (a mesh-aware supervisor rounds down to a divisor
// of its part count); it must return a value in [1, survivors]. When
// nil the rebuilt world uses every survivor.
//
// Faults are injected only into the first attempt: a revocation
// consumes the fault plan, so recovery runs fault-free — matching the
// model where the failed hardware is gone from the world.
func Supervise(n int, opt Options, nextSize func(survivors int) int, body func(*Ctx, Epoch) error) (Stats, error) {
	ep := Epoch{Size: n}
	for {
		cur := ep // body goroutines must see this attempt's epoch
		stats, err := runOpt(cur.Size, opt, true, func(c *Ctx) error { return body(c, cur) })
		var rev *RevokedError
		if !errors.As(err, &rev) {
			return stats, err
		}
		failed := rev.Failed
		survivors := cur.Size - len(failed)
		if survivors < 1 {
			return stats, err
		}
		size := survivors
		if nextSize != nil {
			size = nextSize(survivors)
			if size < 1 || size > survivors {
				return stats, fmt.Errorf("pcu: supervisor chose world size %d outside [1, %d]: %w", size, survivors, err)
			}
		}
		ep = Epoch{Attempt: cur.Attempt + 1, Size: size, Failed: failed}
		opt.Faults = nil
	}
}
