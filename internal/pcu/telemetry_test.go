package pcu

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/fastmath/pumi-go/internal/telemetry"
	"github.com/fastmath/pumi-go/internal/trace"
)

// TestDefaultMetricsRegistry: a world records into the registry
// SetDefaultMetrics installed, and with none installed into one of its
// own — Ctx.Metrics is never nil, and spans, counts and typed series all
// land in the registry it returns.
func TestDefaultMetricsRegistry(t *testing.T) {
	record := func() *telemetry.Registry {
		var reg *telemetry.Registry
		err := Run(2, func(c *Ctx) error {
			c.Span("test.stage").End()
			c.Count("test.events", 1)
			c.Metrics().Gauge("test.gauge").SetInt(c.Rank(), 1)
			c.Barrier()
			if c.Rank() == 0 {
				reg = c.Metrics()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if reg == nil {
			t.Fatal("Ctx.Metrics is nil")
		}
		if got := reg.Histogram("test.stage.ns").Count(); got != 2 {
			t.Errorf("span observations = %d, want 2", got)
		}
		if got := reg.Counter("test.events").Value(); got != 2 {
			t.Errorf("count = %d, want 2", got)
		}
		if _, ok := reg.Gauge("test.gauge").Get(1); !ok {
			t.Error("gauge sample missing")
		}
		return reg
	}
	if DefaultMetrics() != nil {
		t.Fatal("a default registry is installed before the test")
	}
	private := record()
	if again := record(); again == private {
		t.Error("two worlds with no default registry share one")
	}

	reg := telemetry.NewRegistry()
	SetDefaultMetrics(reg)
	defer SetDefaultMetrics(nil)
	if got := record(); got != reg {
		t.Error("world does not record into the installed default registry")
	}
	if DefaultMetrics() != reg {
		t.Error("DefaultMetrics does not return the installed registry")
	}
}

// TestTelemetrySourcesLive serves the composed introspection sources
// over HTTP while a traced world is mid-run, and checks every endpoint
// responds with a valid document. The live /trace document is also the
// input of the arrival-skew analysis: the critical path of the scraped
// rings blames the barrier on the rank that arrived late.
func TestTelemetrySourcesLive(t *testing.T) {
	reg := telemetry.NewRegistry()
	SetDefaultMetrics(reg)
	defer SetDefaultMetrics(nil)
	col := new(trace.Collector)
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
			if c.Rank() == 1 {
				// Arrive last: enter the barrier only once rank 0 is parked in it.
				awaitArrivals(c, 1)
			}
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
	cp, err := trace.CriticalPathChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	blamed := false
	for _, p := range cp.Phases {
		if p.Name == "barrier" {
			blamed = p.Instances == 1 && p.BlamedCount[1] == 1 && p.MaxSkewNs > 0
		}
	}
	if !blamed {
		t.Errorf("critical path of the live trace does not blame the barrier on rank 1: %+v", cp.Phases)
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
