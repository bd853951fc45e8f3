package pcu

// Flight-recorder wiring: when a run is traced (Options.Trace or the
// process-wide collector installed by a tool's -trace flag), every rank
// records its blocking operations, per-peer deliveries and injected
// faults into its ring of the run's trace.Trace. Recording is a single
// ring store under an uncontended mutex — zero allocations, no
// collectives — so a traced schedule is the real schedule and the
// alloc-regression tests hold with tracing on.

import (
	"sync/atomic"

	"github.com/fastmath/pumi-go/internal/trace"
)

// defaultTracer is the process-wide trace collector, installed by tools
// (pumi-bench -trace, pumi-part -trace) so every run they start records
// without threading an option through each experiment.
var defaultTracer atomic.Pointer[trace.Collector]

// SetDefaultTrace installs col as the process-wide trace collector:
// every subsequent run without an explicit Options.Trace records into a
// fresh per-run trace and adds it to col when the run ends, normally or
// not. Pass nil to turn default tracing off.
func SetDefaultTrace(col *trace.Collector) { defaultTracer.Store(col) }

// Trace returns this rank's flight recorder, or nil when the run is
// untraced — for the typed events that are not stage spans (points,
// iteration records); a stage is c.Span. All Recorder
// methods are nil-safe, so instrumented code calls them unconditionally.
func (c *Ctx) Trace() *trace.Recorder { return c.tr }
