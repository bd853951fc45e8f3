package pcu

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/telemetry"
	"github.com/fastmath/pumi-go/internal/trace"
)

func TestWorldMetricsRecorded(t *testing.T) {
	reg := telemetry.NewRegistry()
	const ranks = 4
	_, err := RunOpt(ranks, Options{Topo: hwtopo.Cluster(2, 2), Metrics: reg}, func(c *Ctx) error {
		for i := 0; i < 3; i++ {
			c.To((c.Rank() + 1) % c.Size()).Bytes(make([]byte, 64))
			for _, m := range c.Exchange() {
				_ = m.Data.BytesNoCopy()
				m.Data.Done()
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("pcu.op.exchange.ns").Count(); got != ranks*3 {
		t.Errorf("exchange latency observations = %d, want %d", got, ranks*3)
	}
	if got := reg.Histogram("pcu.op.barrier.ns").Count(); got != ranks {
		t.Errorf("barrier latency observations = %d, want %d", got, ranks)
	}
	// One skew observation per collective instance (recorded by the
	// releasing rank only).
	if got := reg.Histogram("pcu.skew.exchange.ns").Count(); got != 3 {
		t.Errorf("exchange skew observations = %d, want 3", got)
	}
	if got := reg.Histogram("pcu.skew.barrier.ns").Count(); got != 1 {
		t.Errorf("barrier skew observations = %d, want 1", got)
	}
	// Ring exchange: every rank sent the same 64-byte payload (plus
	// framing) to its right neighbor three times, so all cells agree and
	// carry at least the raw payload bytes.
	m := reg.Matrix("pcu.neighbor.bytes")
	want := m.Get(0, 1)
	if want < 3*64 {
		t.Errorf("neighbor bytes 0->1 = %d, want >= %d", want, 3*64)
	}
	for r := 1; r < ranks; r++ {
		if got := m.Get(r, (r+1)%ranks); got != want {
			t.Errorf("neighbor bytes %d->%d = %d, want %d", r, (r+1)%ranks, got, want)
		}
	}
	// The live-rank gauge must balance back to zero after the run.
	if v, ok := reg.Gauge("pcu.live_ranks").Get(0); !ok || v != 0 {
		t.Errorf("live_ranks after run = %v (set=%v), want 0", v, ok)
	}
	if _, ok := reg.Gauge("pcu.straggler.rank").Get(0); !ok {
		t.Error("straggler rank gauge never set")
	}
	// The whole registry must render as valid Prometheus text.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("prometheus output invalid: %v\n%s", err, buf.String())
	}
}

func TestDefaultMetricsRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	SetDefaultMetrics(reg)
	defer SetDefaultMetrics(nil)
	if err := Run(2, func(c *Ctx) error { c.Barrier(); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("pcu.op.barrier.ns").Count(); got != 2 {
		t.Errorf("default-registry barrier observations = %d, want 2", got)
	}
	if DefaultMetrics() != reg {
		t.Error("DefaultMetrics does not return the installed registry")
	}
}

// TestExchangeMeteredZeroAlloc repeats the steady-state exchange check
// with metering on: every phase observes latency/skew histograms, sets
// queue/pool gauges and accumulates the neighbor matrix, and the whole
// metered cycle must still allocate nothing. This is the acceptance bar
// for leaving metering enabled during benchmarks.
func TestExchangeMeteredZeroAlloc(t *testing.T) {
	allocGate(t)
	const (
		ranks  = 4
		warmup = 8
		runs   = 100
	)
	// Two ranks per node so both the on-node and the framed off-node
	// send paths run under metering.
	reg := telemetry.NewRegistry()
	payload := make([]byte, 256)
	ints := make([]int32, 64)
	var avg float64
	RunOpt(ranks, Options{Topo: hwtopo.Cluster(2, 2), StallTimeout: -1, Metrics: reg}, func(c *Ctx) error {
		scratch := make([]int32, 0, len(ints))
		phase := func() {
			b := c.To((c.Rank() + 1) % c.Size())
			b.Bytes(payload)
			b.Int32s(ints)
			for _, m := range c.Exchange() {
				_ = m.Data.BytesNoCopy()
				scratch = m.Data.AppendInt32s(scratch[:0])
				m.Data.Done()
			}
		}
		for i := 0; i < warmup; i++ {
			phase()
		}
		if c.Rank() == 0 {
			avg = testing.AllocsPerRun(runs, phase)
		} else {
			for i := 0; i < runs+1; i++ {
				phase()
			}
		}
		return nil
	})
	if avg != 0 {
		t.Errorf("metered steady-state exchange: %.1f allocs/phase, want 0", avg)
	}
	// Metering must actually have been on, not compiled out.
	if reg.Histogram("pcu.op.exchange.ns").Count() == 0 {
		t.Error("no latency observations recorded during a metered run")
	}
	if reg.Histogram("pcu.skew.exchange.ns").Count() == 0 {
		t.Error("no skew observations recorded during a metered run")
	}
}

// TestTelemetrySourcesLive serves the composed introspection sources
// over HTTP while a traced, metered world is mid-run, and checks every
// endpoint responds with a valid document.
func TestTelemetrySourcesLive(t *testing.T) {
	reg := telemetry.NewRegistry()
	SetDefaultMetrics(reg)
	defer SetDefaultMetrics(nil)
	col := trace.NewCollector(trace.Config{})
	SetDefaultTrace(col)
	defer SetDefaultTrace(nil)

	srv, err := telemetry.Serve("127.0.0.1:0", TelemetrySources())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Hold all ranks mid-run on a channel so the scrape observes an
	// active world, then release.
	release := make(chan struct{})
	scraped := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := Run(2, func(c *Ctx) error {
			c.Barrier()
			if c.Rank() == 0 {
				scraped <- nil // world is live and mid-run: scrape now
				<-release
			}
			c.Exchange()
			return nil
		})
		if err != nil {
			t.Errorf("run under scrape failed: %v", err)
		}
	}()
	<-scraped

	h := HealthReport()
	if !h.Healthy || h.Worlds != 1 || len(h.Lines) != 1 {
		t.Errorf("health mid-run = %+v, want healthy with 1 world", h)
	}
	var buf bytes.Buffer
	if err := WriteLiveChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if kind, err := trace.ValidateFile(buf.Bytes()); err != nil || kind != trace.FileChrome {
		t.Fatalf("live /trace document: kind=%v err=%v", kind, err)
	}
	if !strings.Contains(buf.String(), "barrier") {
		t.Error("live trace missing the barrier span")
	}

	close(release)
	wg.Wait()

	// After the run: no worlds, still healthy, and
	// the collector-backed trace view still serves the finished run.
	if h := HealthReport(); !h.Healthy || h.Worlds != 0 {
		t.Errorf("health after run = %+v", h)
	}
	buf.Reset()
	if err := WriteLiveChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("collector-backed /trace is empty after the run")
	}
}
