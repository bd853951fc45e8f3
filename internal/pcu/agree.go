package pcu

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ULFM-style failure mitigation. A reliable-world runtime answers every
// failure with total teardown: one dead rank poisons the barrier and
// every survivor exits with ErrPeerFailed. User-Level Failure
// Mitigation (the MPI fault-tolerance proposal) instead lets the
// survivors observe the failure as a *revocation* of the world, agree
// on who died, and rebuild a smaller world to continue in. This file is
// that protocol, in three pieces:
//
//   - Agree: a fault-tolerant agreement collective. Ordinary
//     collectives park in the world barrier, which a dead rank blocks
//     forever; Agree parks in its own gate whose arrival threshold is
//     the number of ranks not convicted as failed, and the watchdog
//     feeds it suspicion (vanished ranks) so the threshold drops and
//     the survivors complete with a consistent verdict naming the dead.
//   - Revocation: in a Survivable world the watchdog convicts vanished
//     ranks and poisons the barrier with a *RevokedError naming them —
//     instead of diagnosing an indistinguishable stall — so every
//     survivor unwinds with the same structured cause.
//   - Supervise: the self-healing driver. It runs a body, catches the
//     revocation, computes the survivor count, and re-runs the body on
//     a shrunken world with stable re-numbered ranks, until the body
//     completes or a non-revocation failure surfaces.

// ErrRevoked is wrapped by every world revocation: the structured
// teardown of a Survivable run whose dead ranks were convicted by the
// watchdog, in place of an undiagnosed stall.
var ErrRevoked = errors.New("pcu: world revoked")

// RevokedError names the ranks convicted as failed when a Survivable
// world was revoked. Every surviving rank observes the same error; a
// supervisor uses Failed to build the shrunken successor world.
type RevokedError struct {
	Failed []int // convicted ranks, run numbering, sorted ascending
}

func (e *RevokedError) Error() string {
	return fmt.Sprintf("pcu: world revoked: failed ranks %v", e.Failed)
}

func (e *RevokedError) Unwrap() error { return ErrRevoked }

// poison wraps barrier poisoning at the World level so waiters outside
// the barrier — ranks parked in the Agree gate — wake up too.
func (w *World) poison() { w.poisonWith(ErrPeerFailed) }

// poisonWith poisons the world with the given cause (first cause wins)
// and wakes every Agree waiter so no rank sleeps through a teardown.
func (w *World) poisonWith(cause error) {
	w.bar.poisonWith(cause)
	w.agree.wake()
}

// markFailed merges ranks into the conviction list and returns the full
// sorted list. Idempotent; the watchdog calls it on every poll that
// observes vanished ranks.
func (w *World) markFailed(ranks []int) (all []int, grew bool) {
	w.failMu.Lock()
	for _, r := range ranks {
		if r >= 0 && r < w.size && !w.failed[r] {
			w.failed[r] = true
			grew = true
		}
	}
	for r, f := range w.failed {
		if f {
			all = append(all, r)
		}
	}
	w.failMu.Unlock()
	return all, grew
}

// failedList returns the sorted conviction list.
func (w *World) failedList() []int {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	var all []int
	for r, f := range w.failed {
		if f {
			all = append(all, r)
		}
	}
	return all
}

// liveCount returns how many ranks are not convicted.
func (w *World) liveCount() int {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	n := w.size
	for _, f := range w.failed {
		if f {
			n--
		}
	}
	return n
}

// revoke convicts the given ranks and tears the world down with a
// *RevokedError naming the full conviction list.
func (w *World) revoke(ranks []int) {
	all, _ := w.markFailed(ranks)
	w.poisonWith(&RevokedError{Failed: all})
}

// agreeState is the Agree collective's gate: a reusable generation
// barrier whose arrival threshold is the live (unconvicted) rank count,
// recomputed whenever the watchdog feeds suspicion.
type agreeState struct {
	w    *World
	mu   sync.Mutex
	cond *sync.Cond

	gen     int64 // completed rounds
	waiting int   // arrivals parked in the current round
	arrived int   // arrivals in the current round (includes the finisher)
	acc     bool  // AND of the votes contributed this round

	lastOK     bool  // verdict of round gen-1
	lastFailed []int // conviction list at round gen-1's completion
}

func (a *agreeState) init(w *World) {
	a.w = w
	a.cond = sync.NewCond(&a.mu)
	a.acc = true
}

// wake broadcasts the gate so parked waiters recheck for poison or a
// lowered threshold. Nil-safe no-op before init.
func (a *agreeState) wake() {
	if a.cond == nil {
		return
	}
	a.mu.Lock()
	a.cond.Broadcast()
	a.mu.Unlock()
}

// parked returns how many ranks are blocked in the gate; the watchdog
// adds it to the barrier's count when deciding whether a run is stuck.
func (a *agreeState) parked() int {
	if a.cond == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiting
}

// suspect convicts vanished ranks and wakes the gate so a pending round
// re-evaluates its threshold. Returns true when the conviction list
// grew.
func (a *agreeState) suspect(ranks []int) bool {
	_, grew := a.w.markFailed(ranks)
	if grew {
		a.wake()
	}
	return grew
}

// finishLocked completes the current round: records its verdict,
// advances the generation, and releases the waiters. Caller holds a.mu.
func (a *agreeState) finishLocked() {
	a.lastOK = a.acc
	a.lastFailed = a.w.failedList()
	a.gen++
	a.arrived = 0
	a.acc = true
	a.cond.Broadcast()
}

// agree is one rank's participation in a round. It blocks until every
// live rank has arrived — where "live" shrinks as the watchdog convicts
// vanished ranks — then returns the AND of the contributed votes and
// the conviction list at completion.
func (a *agreeState) agree(c *Ctx, vote bool) (bool, []int) {
	rs := &c.w.ranks[c.rank]
	a.mu.Lock()
	gen := a.gen
	a.arrived++
	a.acc = a.acc && vote
	for {
		if gen != a.gen {
			// Round finished by another rank.
			ok, failed := a.lastOK, a.lastFailed
			a.mu.Unlock()
			return ok, failed
		}
		if cause := a.w.bar.causeErr(); cause != nil {
			a.mu.Unlock()
			panic(cause)
		}
		if a.arrived >= a.w.liveCount() {
			a.finishLocked()
			ok, failed := a.lastOK, a.lastFailed
			a.mu.Unlock()
			return ok, failed
		}
		a.waiting++
		rs.blocked.Store(true)
		a.cond.Wait()
		rs.blocked.Store(false)
		a.waiting--
	}
}

// Agree is a fault-tolerant agreement collective: every live rank
// contributes a vote, and all of them receive the same verdict — the
// logical AND of the votes — together with the list of ranks convicted
// as failed (empty in a healthy world). Unlike every other collective,
// Agree completes on the survivors while a rank is dead: the watchdog
// feeds the gate suspicion, the arrival threshold drops to the live
// count, and the round closes without the dead rank's vote.
//
// Agree is collective over the live ranks: all of them must call it the
// same number of times. It is not recorded in the sanitizer's shadow
// log — survivor schedules legitimately diverge from a dead rank's —
// and it does not park in the world barrier.
func Agree(c *Ctx, vote bool) (bool, []int) {
	c.w.colls.Add(1)
	c.beginOp(&opAgree, false)
	defer c.endOp()
	return c.w.agree.agree(c, vote)
}

// Epoch identifies one attempt of a supervised run.
type Epoch struct {
	// Attempt counts revocations survived so far: 0 for the first
	// attempt, 1 after the first shrink, and so on.
	Attempt int
	// Size is this attempt's world size.
	Size int
	// Initial is the first attempt's world size.
	Initial int
	// Failed lists the ranks convicted when the previous attempt was
	// revoked, in the previous attempt's numbering; nil on attempt 0.
	Failed []int
}

// Supervise is the self-healing run loop: it executes body on n ranks
// under opt (with Survivable forced on), and when the world is revoked
// — the watchdog convicted dead ranks and every survivor unwound with
// the same *RevokedError — it rebuilds a smaller world over the
// survivors and runs body again with the next Epoch, until body
// completes or fails for a non-revocation reason.
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
	opt.Survivable = true
	ep := Epoch{Size: n, Initial: n}
	for {
		cur := ep // body goroutines must see this attempt's epoch
		stats, err := RunOpt(cur.Size, opt, func(c *Ctx) error { return body(c, cur) })
		var rev *RevokedError
		if !errors.As(err, &rev) {
			return stats, err
		}
		failed := append([]int(nil), rev.Failed...)
		sort.Ints(failed)
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
		ep = Epoch{Attempt: cur.Attempt + 1, Size: size, Initial: cur.Initial, Failed: failed}
		opt.Faults = nil
	}
}
