package pcu

// Live introspection wiring: the process-wide metrics registry a tool's
// -listen flag installs, and the process's introspection sources
// (TelemetrySources): collective-free views over every active world's
// registry, trace rings and barrier tallies, which cmdutil.StartListen
// hands to telemetry.Serve. pcu's blocking ops are observed by the
// flight recorder alone (Begin/End and Send events); the registry holds
// the spans, counts and typed series recorded above pcu.

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"github.com/fastmath/pumi-go/internal/telemetry"
	"github.com/fastmath/pumi-go/internal/trace"
)

// defaultMetrics is the process-wide registry, installed by tools
// (pumi-bench -listen, pumi-part -listen) so every run they start
// records where the endpoint can scrape it.
var defaultMetrics atomic.Pointer[telemetry.Registry]

// SetDefaultMetrics installs r as the process-wide metrics registry:
// every subsequent run records into it. Pass nil to give each later run
// a registry of its own again.
func SetDefaultMetrics(r *telemetry.Registry) { defaultMetrics.Store(r) }

// DefaultMetrics returns the process-wide registry, or nil.
func DefaultMetrics() *telemetry.Registry {
	return defaultMetrics.Load()
}

// Metrics returns the registry this run records into — the one
// SetDefaultMetrics installed, else one private to the world; never nil.
// It is the home of the typed series that are not spans (gauges,
// byte-size histograms, inner-loop latencies). Stage timings and event
// counts go through Span and Count, which record into the same registry.
func (c *Ctx) Metrics() *telemetry.Registry { return c.w.reg }

// worldSeq hands out stable ids for introspection output.
var worldSeq atomic.Int64

// HealthReport reflects every active world's barrier: healthy while no
// barrier is poisoned, with one descriptive line per world — its ranks
// arrived at the barrier and finished — the /healthz endpoint's
// payload.
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
		arrived, finished := w.bar.state()
		switch {
		case w.bar.poisoned.Load():
			h.Healthy = false
			lines = append(lines, line{w.id, fmt.Sprintf(
				"world %d: tearing down: %v", w.id, w.bar.causeErr())})
		default:
			lines = append(lines, line{w.id, fmt.Sprintf(
				"world %d: %d ranks (%d blocked, %d done), %d collectives",
				w.id, w.size, arrived, finished, w.Stats().Collectives)})
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
	if col := defaultTracer.Load(); len(traces) == 0 && col != nil {
		traces = col.Traces()
	}
	return trace.WriteChrome(w, traces...)
}

// TelemetrySources composes the process's introspection callbacks for
// telemetry.Serve: the default metrics registry, the live trace view,
// and the barriers' health.
func TelemetrySources() telemetry.Sources {
	return telemetry.Sources{
		Metrics:   DefaultMetrics(),
		TraceJSON: WriteLiveChrome,
		Health:    HealthReport,
	}
}
