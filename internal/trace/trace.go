// Package trace is the flight recorder of the parallel runtime: every
// rank of a traced run records typed events — operation spans, sends
// with peer and byte counts, migration stages, ParMA iterations with
// their imbalance numbers — into a fixed-size ring buffer. Recording is
// allocation-free in the steady state (the ring is allocated once, all
// event fields are fixed-size, and names are interned strings), so
// tracing can stay on during benchmarks without perturbing the
// allocation behavior the repo's AllocsPerRun tests pin.
//
// When the ring fills, the oldest events are overwritten and counted as
// dropped: the recorder keeps the recent past, like an aircraft flight
// recorder, which is exactly what a stall or crash report needs. Two
// export views exist: a Chrome trace-event timeline (one track per
// rank, loadable in Perfetto or chrome://tracing) and a metrics summary
// (per-phase max/avg/imbalance across ranks, per-neighbor message
// volumes, the ParMA imbalance-vs-iteration series).
//
// All Recorder methods are nil-safe: call sites instrument
// unconditionally (c.Span(...), c.Trace().Point(...)) and pay a single
// branch when tracing is off.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// epoch is the process-wide time origin: all event timestamps are
// nanoseconds since it, so traces from successive runs in one process
// merge onto one timeline.
var epoch = time.Now()

// now returns nanoseconds since the process trace epoch (monotonic).
func now() int64 { return int64(time.Since(epoch)) }

// Kind classifies one event record.
type Kind uint8

const (
	// KindBegin opens a named span (operation, phase, protocol stage).
	KindBegin Kind = 1 + iota
	// KindEnd closes the innermost open span with the same name.
	KindEnd
	// KindPoint is a named instant with one integer argument.
	KindPoint
	// KindSend is one delivered payload: A is the peer rank, B the byte
	// count, V is 1 for on-node (by-reference) delivery and 0 for
	// off-node (framed copy).
	KindSend
	// KindParmaIter is one ParMA balancing iteration: A is the entity
	// dimension, B the iteration index, V the peak imbalance.
	KindParmaIter
	// KindFault is an injected fault firing: Name is the fault kind, A
	// the 1-based op index it struck at.
	KindFault
)

var kindNames = [...]string{
	KindBegin:     "begin",
	KindEnd:       "end",
	KindPoint:     "point",
	KindSend:      "send",
	KindParmaIter: "parma-iter",
	KindFault:     "fault",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one fixed-size flight-recorder record. T is nanoseconds
// since the process trace epoch; the meaning of Name, A, B and V
// depends on Kind.
type Event struct {
	T    int64
	Kind Kind
	Name string
	A, B int64
	V    float64
}

// String renders the event for stall reports and pumi-trace dumps.
func (e Event) String() string {
	at := time.Duration(e.T).Round(time.Microsecond)
	switch e.Kind {
	case KindBegin:
		return fmt.Sprintf("%v %s{", at, e.Name)
	case KindEnd:
		return fmt.Sprintf("%v }%s", at, e.Name)
	case KindPoint:
		return fmt.Sprintf("%v %s(%d)", at, e.Name, e.A)
	case KindSend:
		class := "off-node"
		if e.V != 0 {
			class = "on-node"
		}
		return fmt.Sprintf("%v send->%d %dB %s", at, e.A, e.B, class)
	case KindParmaIter:
		return fmt.Sprintf("%v parma dim %d iter %d imb %.4f", at, e.A, e.B, e.V)
	case KindFault:
		return fmt.Sprintf("%v fault %s at op %d", at, e.Name, e.A)
	}
	return fmt.Sprintf("%v ?%d", at, e.Kind)
}

// RingSize is the per-rank ring capacity in events, a power of two so
// the ring index is a mask: at 56 bytes per event this is ~230 KB per
// rank, deep enough to hold several balancing iterations of history.
const RingSize = 4096

// Trace is the flight recorder of one parallel run: one Recorder per
// rank, all sharing the process trace epoch.
type Trace struct {
	recs []Recorder
}

// New creates a recorder set for ranks ranks. The rings are allocated
// here, once; recording is allocation-free afterwards.
func New(ranks int) *Trace {
	t := &Trace{recs: make([]Recorder, ranks)}
	for i := range t.recs {
		t.recs[i].rank = i
		t.recs[i].ring = make([]Event, RingSize)
	}
	return t
}

// Ranks returns the number of per-rank recorders (0 on a nil Trace).
func (t *Trace) Ranks() int {
	if t == nil {
		return 0
	}
	return len(t.recs)
}

// Rank returns rank r's recorder, or nil when t is nil — so a run can
// hand every rank a recorder unconditionally.
func (t *Trace) Rank(r int) *Recorder {
	if t == nil {
		return nil
	}
	return &t.recs[r]
}

// Recorder is one rank's flight recorder. Events are written by the
// rank's own goroutine; the mutex exists so a watchdog or exporter on
// another goroutine can snapshot the ring mid-run (an uncontended
// mutex keeps the hot path allocation- and syscall-free).
type Recorder struct {
	mu   sync.Mutex
	rank int
	ring []Event
	head uint64 // total events emitted; ring slot = head & (len-1)

	// Recorders live side by side in Trace.recs and every emit writes mu
	// and head, so without padding adjacent ranks would false-share cache
	// lines and serialize each other's hot paths. Two cache lines of pad
	// also defeats the adjacent-line prefetcher.
	_ [128 - 48]byte
}

// emit appends one event, overwriting the oldest when the ring is full.
func (r *Recorder) emit(e Event) {
	if r == nil {
		return
	}
	e.T = now()
	r.mu.Lock()
	r.ring[r.head&uint64(len(r.ring)-1)] = e
	r.head++
	r.mu.Unlock()
}

// Begin opens a named span. Names must be interned (package-level
// strings or literals) to keep recording allocation-free.
func (r *Recorder) Begin(name string) { r.emit(Event{Kind: KindBegin, Name: name}) }

// End closes the innermost open span with the same name.
func (r *Recorder) End(name string) { r.emit(Event{Kind: KindEnd, Name: name}) }

// Point records a named instant with one integer argument.
func (r *Recorder) Point(name string, a int64) { r.emit(Event{Kind: KindPoint, Name: name, A: a}) }

// Send records one delivered payload to peer of the given size.
func (r *Recorder) Send(peer, bytes int, onNode bool) {
	v := 0.0
	if onNode {
		v = 1
	}
	r.emit(Event{Kind: KindSend, Name: "send", A: int64(peer), B: int64(bytes), V: v})
}

// ParmaIter records one balancing iteration of entity dimension dim
// with its measured peak imbalance.
func (r *Recorder) ParmaIter(dim, iter int, imb float64) {
	r.emit(Event{Kind: KindParmaIter, Name: "parma.iter", A: int64(dim), B: int64(iter), V: imb})
}

// Fault records an injected fault of the named kind striking at the
// given 1-based op index.
func (r *Recorder) Fault(kind string, op int64) {
	r.emit(Event{Kind: KindFault, Name: kind, A: op})
}

// Dropped returns how many events were overwritten by ring wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped()
}

func (r *Recorder) dropped() uint64 {
	if r.head > uint64(len(r.ring)) {
		return r.head - uint64(len(r.ring))
	}
	return 0
}

// Snapshot returns a chronological copy of the retained events.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.head
	size := uint64(len(r.ring))
	first := uint64(0)
	if n > size {
		first = n - size
	}
	out := make([]Event, 0, n-first)
	for i := first; i < n; i++ {
		out = append(out, r.ring[i&(size-1)])
	}
	return out
}

// Tail returns a chronological copy of the last n retained events —
// the timeline fragment stall and chaos reports attach.
func (r *Recorder) Tail(n int) []Event {
	ev := r.Snapshot()
	if len(ev) > n {
		ev = ev[len(ev)-n:]
	}
	return ev
}

// TailStrings renders the last n events of every rank, one line per
// rank, for plain-text failure reports.
func (t *Trace) TailStrings(n int) []string {
	if t == nil {
		return nil
	}
	out := make([]string, 0, len(t.recs))
	for i := range t.recs {
		ev := t.recs[i].Tail(n)
		parts := make([]string, len(ev))
		for j, e := range ev {
			parts[j] = e.String()
		}
		out = append(out, fmt.Sprintf("rank %d: %s", i, strings.Join(parts, " | ")))
	}
	return out
}

// captured is the exporter-facing view of one or more runs: events per
// rank in chronological order plus per-rank drop counts.
type captured struct {
	perRank [][]Event
	dropped []uint64
}

// capture merges runs: rank r's events from every trace, concatenated
// in argument order (runs are sequential, so this is chronological —
// all recorders stamp time against the same epoch). Nil traces are
// skipped.
func capture(traces []*Trace) captured {
	ranks := 0
	for _, t := range traces {
		ranks = max(ranks, t.Ranks())
	}
	c := captured{perRank: make([][]Event, ranks), dropped: make([]uint64, ranks)}
	for _, t := range traces {
		for r := range t.Ranks() {
			c.perRank[r] = append(c.perRank[r], t.recs[r].Snapshot()...)
			c.dropped[r] += t.recs[r].Dropped()
		}
	}
	return c
}
