package pcu

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Stall diagnosis: the error the barrier (world.go) tears down a run
// with when it can no longer advance, naming the op each rank is
// blocked in and how many collectives and exchanges it has entered.

// DefaultStallTimeout is the stall timeout used when Options leaves
// StallTimeout zero. Legitimate compute phases between collectives must
// finish within it; tests that provoke deadlocks use much smaller
// values.
const DefaultStallTimeout = 2 * time.Minute

// ErrStalled is wrapped by every stall teardown.
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
	// SinceProgress is the time from this rank's last barrier arrival
	// or exit (the run's start if it had neither) to the diagnosis,
	// rounded to microseconds, so a report distinguishes a slow rank —
	// short SinceProgress, still moving — from a dead one stuck since
	// the beginning of the stall window.
	SinceProgress time.Duration
}

func (r RankSnapshot) describe() string {
	state, idle := "computing", ""
	switch {
	case r.Vanished:
		state = "vanished"
	case r.Done:
		state = "finished"
	case r.Blocked:
		state = "blocked in " + r.Op
	}
	if r.SinceProgress > 0 {
		idle = fmt.Sprintf(", idle %v", r.SinceProgress)
	}
	return fmt.Sprintf("rank %d %s (colls=%d exchs=%d%s)", r.Rank, state, r.Collectives, r.Exchanges, idle)
}

// StallError is the barrier's diagnosis of a run that can no longer
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
