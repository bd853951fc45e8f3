package pcu

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"
)

// Collective watchdog. A rank that skips a collective (or dies without
// panicking) leaves its peers blocked in the shared barrier forever —
// historically a silent hang. The watchdog turns that hang into an
// actionable error: it polls the run's progress and, when the run can
// no longer advance, poisons the barrier with a *StallError carrying a
// per-rank diagnosis (which op each rank is blocked in and how many
// collectives/exchanges it has completed) — or, in a survivable world
// with vanished ranks, with a *RevokedError naming them.
//
// Two triggers:
//
//   - certain deadlock: every rank is either finished or blocked in the
//     barrier, at least one is blocked, and the state is identical
//     across two consecutive polls. No timeout is needed — the run
//     provably cannot advance — so diagnosis is near-immediate.
//   - timeout stall: at least one rank has been blocked with no barrier
//     progress anywhere for longer than the configured stall timeout
//     (covers livelock and pathological stragglers).

// DefaultStallTimeout is the watchdog timeout used when Options leaves
// StallTimeout zero. Legitimate compute phases between collectives must
// finish within it; tests that provoke deadlocks use much smaller
// values.
const DefaultStallTimeout = 2 * time.Minute

// ErrStalled is wrapped by every watchdog teardown.
var ErrStalled = errors.New("pcu: collective stall")

// RankSnapshot is one rank's progress record in a stall diagnosis.
type RankSnapshot struct {
	Rank        int
	Op          string // op the rank is blocked in ("" while computing)
	Collectives int64  // collectives entered by this rank
	Exchanges   int64  // exchanges entered by this rank
	Blocked     bool
	Done        bool
	Vanished    bool
	// SinceProgress is how long this rank's progress state had been
	// unchanged when the diagnosis was taken (watchdog-observed, rounded
	// to milliseconds), so a report distinguishes a slow rank — short
	// SinceProgress, still moving — from a dead one stuck since the
	// beginning of the stall window. Zero when the watchdog never saw
	// the rank change (diagnosis on the first polls).
	SinceProgress time.Duration
}

func (r RankSnapshot) describe() string {
	idle := ""
	if r.SinceProgress > 0 {
		idle = fmt.Sprintf(", idle %v", r.SinceProgress)
	}
	switch {
	case r.Vanished:
		return fmt.Sprintf("rank %d vanished (colls=%d exchs=%d%s)", r.Rank, r.Collectives, r.Exchanges, idle)
	case r.Done:
		return fmt.Sprintf("rank %d finished (colls=%d exchs=%d%s)", r.Rank, r.Collectives, r.Exchanges, idle)
	case r.Blocked:
		return fmt.Sprintf("rank %d blocked in %s (colls=%d exchs=%d%s)", r.Rank, r.Op, r.Collectives, r.Exchanges, idle)
	default:
		return fmt.Sprintf("rank %d computing (colls=%d exchs=%d%s)", r.Rank, r.Collectives, r.Exchanges, idle)
	}
}

// StallError is the watchdog's diagnosis of a run that can no longer
// make progress.
type StallError struct {
	Reason string
	Ranks  []RankSnapshot
	// Trails holds each rank's flight-recorder tail (one rendered line
	// per rank) when the stalled run was traced: the last operations,
	// sends and faults leading up to the stall, not just the op each
	// rank is frozen in. Empty for untraced runs.
	Trails []string
	// Counters is the run's registry report (telemetry.Registry.Report)
	// at diagnosis time: every stage's span count and total nanoseconds
	// and every event counter, name-sorted, so a stall carries how much
	// work each phase did before freezing without a separate scrape.
	// Empty when the run recorded nothing.
	Counters string
}

func (e *StallError) Error() string {
	var b strings.Builder
	b.WriteString("pcu: collective stall: ")
	b.WriteString(e.Reason)
	for _, r := range e.Ranks {
		b.WriteString("\n  ")
		b.WriteString(r.describe())
	}
	if len(e.Trails) > 0 {
		b.WriteString("\n  flight recorder:")
		for _, t := range e.Trails {
			b.WriteString("\n    ")
			b.WriteString(t)
		}
	}
	if e.Counters != "" {
		b.WriteString("\n  counters:")
		for _, line := range strings.Split(strings.TrimRight(e.Counters, "\n"), "\n") {
			b.WriteString("\n    ")
			b.WriteString(line)
		}
	}
	return b.String()
}

func (e *StallError) Unwrap() error { return ErrStalled }

// snapshot collects every rank's progress state. Each field is read
// atomically; a snapshot only triggers a teardown when it repeats
// across consecutive polls, so skew between fields of a rank mid-update
// cannot produce a false diagnosis.
func (w *World) snapshot() []RankSnapshot {
	out := make([]RankSnapshot, len(w.ranks))
	for i := range w.ranks {
		rs := &w.ranks[i]
		op := ""
		if p := rs.op.Load(); p != nil {
			op = *p
		}
		out[i] = RankSnapshot{
			Rank:        i,
			Op:          op,
			Collectives: rs.colls.Load(),
			Exchanges:   rs.exchs.Load(),
			Blocked:     rs.blocked.Load(),
			Done:        rs.done.Load(),
			Vanished:    rs.vanished.Load(),
		}
	}
	return out
}

// watch runs until stop closes, poisoning the barrier with a
// *StallError (or a *RevokedError) when the run stalls.
func (w *World) watch(timeout time.Duration, stop chan struct{}) {
	interval := timeout / 8
	if interval > 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var prev []RankSnapshot
	var lastChange []time.Time
	prevGen := -1
	prevCertain := false
	lastActivity := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if w.bar.isPoisoned() {
			return // already tearing down
		}
		snap := w.snapshot()
		parked, gen := w.bar.state()
		now := time.Now()
		if lastChange == nil {
			lastChange = make([]time.Time, len(snap))
			for i := range lastChange {
				lastChange[i] = now
			}
		}
		for i := range snap {
			if prev != nil && snap[i] != prev[i] {
				lastChange[i] = now
			}
		}
		// idleStamped fills each snapshot entry's time-since-progress
		// right before a diagnosis is published.
		idleStamped := func() []RankSnapshot {
			for i := range snap {
				snap[i].SinceProgress = now.Sub(lastChange[i]).Round(time.Millisecond)
			}
			return snap
		}
		if gen != prevGen || !slices.Equal(prev, snap) {
			lastActivity = now
			prev, prevGen = snap, gen
			prevCertain = false
			continue
		}
		anyBlocked, allStuck, nBlocked := false, true, 0
		for _, r := range snap {
			if r.Blocked {
				anyBlocked = true
				nBlocked++
			} else if !r.Done {
				allStuck = false
			}
		}
		if !anyBlocked {
			lastActivity = now
			continue
		}
		// Certain only when every flagged rank has actually parked in the
		// barrier (a rank between flagging and parking might still be the
		// arrival that fills the barrier and releases everyone).
		certain := allStuck && parked == nBlocked
		if certain && prevCertain {
			if w.revoke(snap) {
				return
			}
			w.stall(&StallError{
				Reason: "deadlock: every rank is finished or blocked, none can advance",
				Ranks:  idleStamped(),
			})
			return
		}
		prevCertain = certain
		if time.Since(lastActivity) > timeout {
			if w.revoke(snap) {
				return
			}
			w.stall(&StallError{
				Reason: fmt.Sprintf("no progress for %v", timeout),
				Ranks:  idleStamped(),
			})
			return
		}
	}
}

// stallTrail is how many flight-recorder events per rank a stall
// diagnosis carries: enough to see the phase pattern leading up to the
// stall without flooding the report.
const stallTrail = 8

// revoke tears a survivable world down with a *RevokedError naming the
// ranks snap shows vanished, and reports whether it did: the dead block
// the survivors forever, so they unwind with one structured cause
// instead of an undiagnosed stall.
func (w *World) revoke(snap []RankSnapshot) bool {
	if !w.survivable {
		return false
	}
	var vanished []int
	for _, r := range snap {
		if r.Vanished {
			vanished = append(vanished, r.Rank)
		}
	}
	if vanished == nil {
		return false
	}
	w.bar.poisonWith(&RevokedError{Failed: vanished})
	return true
}

// stall releases all blocked ranks by poisoning the barrier with the
// diagnosis.
func (w *World) stall(err *StallError) {
	if err.Trails == nil {
		// Safe while ranks still run: each Recorder snapshot locks its
		// ring against the owning rank's writes.
		err.Trails = w.tr.TailStrings(stallTrail)
	}
	if err.Counters == "" {
		// The report is atomic loads over the cells: safe while the
		// stalled ranks sit in the barrier.
		err.Counters = w.reg.Report()
	}
	w.bar.poisonWith(err)
}
