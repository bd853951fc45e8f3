package pcu

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Fault injection. A FaultPlan is a seeded, deterministic schedule of
// failures threaded through RunOpt: the plan names a rank and the index
// of a blocking operation (collective or Exchange) on that rank, and
// the runtime provokes the failure exactly there, so any test or
// command can replay an exact failure from its seed alone.
//
// Fault classes:
//
//   - FaultPanic:     the rank panics entering the op. The barrier is
//     poisoned and the whole run tears down with a structured
//     *FaultError (peers observe ErrPeerFailed).
//   - FaultVanish:    the rank silently stops participating, as if its
//     process died without notice. Nothing is poisoned; the remaining
//     ranks deadlock and the barrier diagnoses the stall.
//   - FaultDelay:     the rank sleeps before entering the op
//     (straggler simulation; exercises the stall timeout's margins).
//   - FaultCorrupt:   every off-node payload the rank sends during the
//     op has one byte flipped after framing, like wire corruption. The
//     receiver's CRC check rejects the frame; the transient-fault layer
//     revalidates the retransmit the damaged frame carries and the
//     exchange completes (counted in Stats.Retries). A Sticky corruption poisons
//     the retransmits too, so the retry budget dies and decoding
//     surfaces a structured ErrCorruptMessage naming the spent budget.
//   - FaultTruncate:  off-node payloads sent during the op lose their
//     tail; the frame length check rejects them at the receiver and the
//     same retransmit path recovers them (or not, when Sticky).
//   - FaultDuplicate: off-node payloads sent during the op are
//     delivered twice; the frame sequence check detects the replay and
//     drops it (counted in Stats.Replays), like any reliable transport.
//     A wire fault aimed at a collective, which sends no frames, is
//     recorded in the trace and damages nothing.
//
// On-node messages travel by reference through shared memory and are
// not subject to wire faults, matching the architecture the runtime
// models.

// FaultKind enumerates the injectable failure classes.
type FaultKind int

const (
	FaultNone FaultKind = iota
	FaultPanic
	FaultVanish
	FaultDelay
	FaultCorrupt
	FaultTruncate
	FaultDuplicate
)

var faultNames = [...]string{
	FaultNone:      "none",
	FaultPanic:     "panic",
	FaultVanish:    "vanish",
	FaultDelay:     "delay",
	FaultCorrupt:   "corrupt",
	FaultTruncate:  "truncate",
	FaultDuplicate: "duplicate",
}

func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one scheduled failure: Kind strikes Rank at its Op-th
// blocking operation (1-based count of collectives plus exchanges on
// that rank).
type Fault struct {
	Rank  int
	Op    int64
	Kind  FaultKind
	Delay time.Duration
	// Sticky marks a wire fault (corrupt/truncate) as permanent for the
	// affected frames: their retransmits carry the same damage, so the
	// receiver's retry budget is spent in vain and the failure escalates
	// to a fatal ErrCorruptMessage. Non-sticky
	// wire faults are transient — the first retransmit recovers them.
	Sticky bool
}

func (f Fault) String() string {
	if f.Kind == FaultDelay {
		return fmt.Sprintf("rank %d %s %v at op %d", f.Rank, f.Kind, f.Delay, f.Op)
	}
	if f.Sticky {
		return fmt.Sprintf("rank %d sticky %s at op %d", f.Rank, f.Kind, f.Op)
	}
	return fmt.Sprintf("rank %d %s at op %d", f.Rank, f.Kind, f.Op)
}

// FaultPlan is a deterministic failure schedule. The zero/nil plan
// injects nothing.
type FaultPlan struct {
	Seed   int64
	Faults []Fault
}

// String describes the plan for logs and replay records.
func (p *FaultPlan) String() string {
	if p == nil || len(p.Faults) == 0 {
		return "no faults"
	}
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return fmt.Sprintf("seed %d: %s", p.Seed, strings.Join(parts, "; "))
}

// find returns the fault scheduled for (rank, op), or nil.
func (p *FaultPlan) find(rank int, op int64) *Fault {
	if p == nil {
		return nil
	}
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Rank == rank && f.Op == op {
			return f
		}
	}
	return nil
}

// RandomFaultPlan derives a deterministic plan from the seed: one or
// two faults on random ranks, striking within the first maxOp blocking
// operations. The same (seed, ranks, maxOp) always yields the same
// plan.
func RandomFaultPlan(seed int64, ranks int, maxOp int64) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	kinds := []FaultKind{
		FaultPanic, FaultVanish, FaultDelay,
		FaultCorrupt, FaultTruncate, FaultDuplicate,
	}
	n := 1 + rng.Intn(2)
	plan := &FaultPlan{Seed: seed}
	used := map[[2]int64]bool{}
	for i := 0; i < n; i++ {
		f := Fault{
			Rank: rng.Intn(ranks),
			Op:   1 + rng.Int63n(maxOp),
			Kind: kinds[rng.Intn(len(kinds))],
		}
		if f.Kind == FaultDelay {
			f.Delay = time.Duration(1+rng.Intn(20)) * time.Millisecond
		}
		key := [2]int64{int64(f.Rank), f.Op}
		if used[key] {
			continue
		}
		used[key] = true
		plan.Faults = append(plan.Faults, f)
	}
	sort.Slice(plan.Faults, func(i, j int) bool {
		if plan.Faults[i].Op != plan.Faults[j].Op {
			return plan.Faults[i].Op < plan.Faults[j].Op
		}
		return plan.Faults[i].Rank < plan.Faults[j].Rank
	})
	return plan
}

// ErrFaultInjected is wrapped by every failure the fault layer provokes
// directly (FaultPanic), so harnesses can separate injected failures
// from organic ones.
var ErrFaultInjected = errors.New("pcu: injected fault")

// FaultError reports an injected fatal fault.
type FaultError struct {
	Fault Fault
}

func (e *FaultError) Error() string { return "pcu: injected fault: " + e.Fault.String() }

func (e *FaultError) Unwrap() error { return ErrFaultInjected }

// ErrCorruptMessage is wrapped by every frame-validation failure on an
// off-node payload that the transient-fault layer could not repair:
// the frame carried no retransmit, or the retry budget died with every
// retransmit failing validation too. The error
// surfaces when the receiver decodes the message.
var ErrCorruptMessage = errors.New("pcu: corrupt off-node message")

// CorruptError identifies one rejected off-node frame.
type CorruptError struct {
	From, To int
	Reason   string
	// Retries counts the retransmits the receiver revalidated before
	// giving up; zero when the frame carried no retransmit.
	Retries int
}

func (e *CorruptError) Error() string {
	if e.Retries > 0 {
		return fmt.Sprintf("pcu: corrupt off-node message from rank %d to rank %d: %s (after %d retransmit(s))",
			e.From, e.To, e.Reason, e.Retries)
	}
	return fmt.Sprintf("pcu: corrupt off-node message from rank %d to rank %d: %s",
		e.From, e.To, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorruptMessage }

// vanishSignal makes a rank disappear without poisoning the barrier;
// RunOpt recovers it and the barrier records the rank as vanished.
type vanishSignal struct{ fault Fault }
