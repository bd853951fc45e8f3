package pcu

// Live metrics wiring: when a run carries Options.Metrics (or a
// process-wide registry is installed by a tool's -listen flag), the op
// hot path records latency and arrival-skew histograms, queue-depth and
// pool-occupancy gauges and the per-neighbor traffic matrix into the
// registry. Every record is a handful of atomics on handles resolved
// once per world — zero allocations, no locks, no collectives — so a
// metered schedule is the real schedule and the alloc-regression tests
// hold with metering on (TestExchangeMeteredZeroAlloc).
//
// The same file composes the process's introspection sources
// (TelemetrySources): collective-free views over every active world's
// trace rings, conformance cursors and watchdog state, which
// cmdutil.StartListen hands to telemetry.Serve.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"github.com/fastmath/pumi-go/internal/telemetry"
	"github.com/fastmath/pumi-go/internal/trace"
)

// defaultMetrics is the process-wide registry, installed by tools
// (pumi-bench -listen, pumi-part -listen) so every run they start
// meters without threading an option through each experiment.
var defaultMetrics atomic.Pointer[telemetry.Registry]

// SetDefaultMetrics installs r as the process-wide metrics registry:
// every subsequent run without an explicit Options.Metrics records into
// it. Pass nil to turn default metering off.
func SetDefaultMetrics(r *telemetry.Registry) { defaultMetrics.Store(r) }

// DefaultMetrics returns the process-wide registry, or nil.
func DefaultMetrics() *telemetry.Registry {
	return defaultMetrics.Load()
}

// Metrics returns the registry supplied to this run (Options.Metrics or
// SetDefaultMetrics), or nil when there is none: the home of the typed
// series that are not spans (gauges, byte-size histograms), recorded
// only when someone is there to scrape them. All registry handles are
// nil-safe, so instrumented subsystems (partition, parma, meshio)
// resolve series unconditionally. Stage timings and event counts go
// through Span and Count instead, which always record.
func (c *Ctx) Metrics() *telemetry.Registry {
	if c.w.wm == nil {
		return nil
	}
	return c.w.reg
}

// worldMetrics holds one world's pre-resolved series handles, keyed by
// the interned op-name pointers the hot path already carries — an op
// record is a map hit on a pointer key plus three atomic adds.
type worldMetrics struct {
	opNs   map[*string]*telemetry.Histogram // op latency by op name
	opSkew map[*string]*telemetry.Histogram // last-minus-first arrival gap

	sendBytes  *telemetry.Histogram // per-delivery payload size
	queueDepth *telemetry.Gauge     // inbox deliveries collected per exchange
	poolFree   *telemetry.Gauge     // recycled buffers available per rank
	liveRanks  *telemetry.Gauge     // ranks currently inside run bodies

	stragglerRank *telemetry.Gauge // last-arriving rank of the latest collective
	stragglerSkew *telemetry.Gauge // its arrival gap in nanoseconds

	neighborBytes *telemetry.Matrix // (sender, receiver) payload bytes
}

// opNames lists every interned blocking-op name the hot path can record
// under; both per-op series maps are resolved over it once per world.
var opNames = []*string{
	&opExchange, &opBarrier, &opAllreduce, &opReduce,
	&opBcast, &opAllgather, &opExscan, &opAgree,
}

func newWorldMetrics(reg *telemetry.Registry) *worldMetrics {
	if reg == nil {
		return nil
	}
	wm := &worldMetrics{
		opNs:          make(map[*string]*telemetry.Histogram, len(opNames)),
		opSkew:        make(map[*string]*telemetry.Histogram, len(opNames)),
		sendBytes:     reg.Histogram("pcu.send.bytes"),
		queueDepth:    reg.Gauge("pcu.queue.depth"),
		poolFree:      reg.Gauge("pcu.pool.free"),
		liveRanks:     reg.Gauge("pcu.live_ranks"),
		stragglerRank: reg.Gauge("pcu.straggler.rank"),
		stragglerSkew: reg.Gauge("pcu.straggler.skew_ns"),
		neighborBytes: reg.Matrix("pcu.neighbor.bytes"),
	}
	for _, name := range opNames {
		wm.opNs[name] = reg.Histogram("pcu.op." + *name + ".ns")
		wm.opSkew[name] = reg.Histogram("pcu.skew." + *name + ".ns")
	}
	return wm
}

// recordSkew attributes the collective that just released to its
// last-arriving rank: called by the releasing rank (the one whose
// barrier arrival filled the generation) on the first wait of an op.
// Arrival stamps are matched by op sequence number, so a fast rank
// already stamping its next op is excluded rather than misattributed.
// Reads are atomic and rank-local state is untouched — scraping-grade
// attribution with zero schedule impact.
func (w *World) recordSkew(name *string, seq int64) {
	wm := w.wm
	if wm == nil {
		return
	}
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	blamed := -1
	for i := range w.ranks {
		rs := &w.ranks[i]
		if rs.arrivalSeq.Load() != seq {
			continue
		}
		a := rs.arrival.Load()
		if a < first {
			first = a
		}
		if a > last {
			last = a
			blamed = i
		}
	}
	if blamed < 0 || first > last {
		return
	}
	skew := last - first
	wm.opSkew[name].Observe(blamed, skew)
	wm.stragglerRank.SetInt(0, int64(blamed))
	wm.stragglerSkew.SetInt(0, skew)
}

// worldSeq hands out stable ids for introspection output.
var worldSeq atomic.Int64

// ProtocolStates returns every active conformance-monitored world's
// per-rank cursor positions, sorted by (world, rank) — the /protocol
// endpoint's payload. Collective-free: cursors are atomics.
func ProtocolStates() []telemetry.ProtocolState {
	var out []telemetry.ProtocolState
	worlds.Range(func(k, _ any) bool {
		w := k.(*World)
		m := w.conform
		if m == nil {
			return true
		}
		p := m.Protocol()
		for r := 0; r < m.Ranks(); r++ {
			state, steps := m.Cursor(r)
			out = append(out, telemetry.ProtocolState{
				World:     int(w.id),
				Entry:     p.Entry(),
				Rank:      r,
				State:     state,
				Steps:     steps,
				Accepting: p.Accepting(state),
				Expected:  p.Expected(state),
			})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].World != out[j].World {
			return out[i].World < out[j].World
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// HealthReport reflects the watchdogs' live verdicts over every active
// world: healthy while no barrier is poisoned, with one descriptive
// line per world — the /healthz endpoint's payload.
func HealthReport() telemetry.Health {
	h := telemetry.Health{Healthy: true}
	type line struct {
		id   int64
		text string
	}
	var lines []line
	worlds.Range(func(k, _ any) bool {
		w := k.(*World)
		h.Worlds++
		blocked, done := 0, 0
		for i := range w.ranks {
			if w.ranks[i].blocked.Load() {
				blocked++
			}
			if w.ranks[i].done.Load() {
				done++
			}
		}
		switch {
		case w.bar.isPoisoned():
			h.Healthy = false
			lines = append(lines, line{w.id, fmt.Sprintf(
				"world %d: tearing down: %v", w.id, w.bar.causeErr())})
		default:
			lines = append(lines, line{w.id, fmt.Sprintf(
				"world %d: %d ranks (%d blocked, %d done), %d collectives",
				w.id, w.size, blocked, done, w.colls.Load())})
		}
		return true
	})
	sort.Slice(lines, func(i, j int) bool { return lines[i].id < lines[j].id })
	for _, l := range lines {
		h.Lines = append(h.Lines, l.text)
	}
	return h
}

// WriteLiveChrome streams the live per-rank ring tails of every active
// traced world as one Chrome-trace JSON document — the /trace
// endpoint's payload. Ring snapshots take only each recorder's own
// mutex, so a scrape never blocks a collective. When no world is
// active, the process-wide collector's finished runs are served
// instead (a scrape between benchmark repetitions still sees data).
func WriteLiveChrome(w io.Writer) error {
	var traces []*trace.Trace
	worlds.Range(func(k, _ any) bool {
		if tr := k.(*World).tr; tr != nil {
			traces = append(traces, tr)
		}
		return true
	})
	if len(traces) == 0 {
		if col := defaultTracer.Load(); col != nil && col.Runs() > 0 {
			return col.WriteChrome(w)
		}
	}
	return trace.WriteChromeMerged(w, traces)
}

// TelemetrySources composes the process's introspection callbacks for
// telemetry.Serve: the default metrics registry, the live trace view,
// the conformance cursors and the watchdog verdicts.
func TelemetrySources() telemetry.Sources {
	return telemetry.Sources{
		Metrics:   DefaultMetrics(),
		TraceJSON: WriteLiveChrome,
		Protocol:  ProtocolStates,
		Health:    HealthReport,
	}
}
