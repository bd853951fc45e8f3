package pcu

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/trace"
)

// TestTracedExchangeRecordsTimeline runs a ring exchange under an
// explicit Options.Trace and checks the flight recorder caught the real
// schedule: one exchange span and one send per phase per rank, sends
// naming the right peer and delivery class, and a Chrome export that
// passes schema validation.
func TestTracedExchangeRecordsTimeline(t *testing.T) {
	const ranks, phases = 4, 3
	tr := trace.New(ranks)
	// Two ranks per node: rank r sends to r+1, so ranks 0 and 2 send
	// on-node and ranks 1 and 3 send off-node.
	_, err := RunOpt(ranks, Options{Topo: hwtopo.Cluster(2, 2), Trace: tr}, func(c *Ctx) error {
		for i := 0; i < phases; i++ {
			c.To((c.Rank() + 1) % c.Size()).Int32(int32(i))
			for _, m := range c.Exchange() {
				m.Data.Int32()
				m.Data.Done()
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		var begins, ends, sends, barriers int
		for _, e := range tr.Rank(r).Snapshot() {
			switch {
			case e.Kind == trace.KindBegin && e.Name == "exchange":
				begins++
			case e.Kind == trace.KindEnd && e.Name == "exchange":
				ends++
			case e.Kind == trace.KindBegin && e.Name == "barrier":
				barriers++
			case e.Kind == trace.KindSend:
				sends++
				if want := int64((r + 1) % ranks); e.A != want {
					t.Errorf("rank %d send to peer %d, want %d", r, e.A, want)
				}
				wantOnNode := hwtopo.Cluster(2, 2).SameNode(r, (r+1)%ranks)
				if (e.V != 0) != wantOnNode {
					t.Errorf("rank %d send on_node=%v, want %v", r, e.V != 0, wantOnNode)
				}
			}
		}
		if begins != phases || ends != phases || sends != phases || barriers != 1 {
			t.Errorf("rank %d recorded begins=%d ends=%d sends=%d barriers=%d, want %d/%d/%d/1",
				r, begins, ends, sends, barriers, phases, phases, phases)
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if kind, err := trace.ValidateFile(buf.Bytes()); err != nil || kind != trace.FileChrome {
		t.Fatalf("traced run's chrome export invalid: kind=%v err=%v", kind, err)
	}
}

// TestChromePhasesRoundTrip: the per-phase table read back from a
// traced run's Chrome timeline — what pumi-trace diffs — matches the one
// Summarize computes from the live rings: same names and counts, totals
// within 1 µs per span instance (the export's precision).
func TestChromePhasesRoundTrip(t *testing.T) {
	const ranks = 3
	tr := trace.New(ranks)
	_, err := RunOpt(ranks, Options{Trace: tr}, func(c *Ctx) error {
		for i := 0; i < 4; i++ {
			outer := c.Span("test.outer")
			inner := c.Span("test.inner")
			c.To((c.Rank() + 1) % c.Size()).Int32(int32(i))
			for _, m := range c.Exchange() {
				m.Data.Int32()
				m.Data.Done()
			}
			inner.End()
			SumInt64(c, 1)
			outer.End()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Summarize(tr).Phases
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ChromePhases(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) < 3 {
		t.Fatalf("timeline phases %+v, summary phases %+v", got, want)
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Count != w.Count {
			t.Errorf("phase %d: timeline %s x%d, summary %s x%d", i, g.Name, g.Count, w.Name, w.Count)
		}
		if d := math.Abs(g.TotalSec - w.TotalSec); d > 1e-6*float64(w.Count) {
			t.Errorf("phase %s: timeline total %.9fs, summary %.9fs", w.Name, g.TotalSec, w.TotalSec)
		}
	}
}

// TestTraceTooSmallRejected: a trace sized for fewer ranks than the run
// is a configuration error, not a partial recording.
func TestTraceTooSmallRejected(t *testing.T) {
	_, err := RunOpt(4, Options{Trace: trace.New(2)}, func(c *Ctx) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "trace sized for 2 ranks") {
		t.Fatalf("undersized trace accepted: err=%v", err)
	}
}

// TestDefaultTraceCollector: with a process-wide collector installed,
// runs without an explicit Options.Trace record into it — including
// failed runs, whose timeline is what the trace is for.
func TestDefaultTraceCollector(t *testing.T) {
	col := new(trace.Collector)
	SetDefaultTrace(col)
	defer SetDefaultTrace(nil)
	Run(2, func(c *Ctx) error {
		c.Barrier()
		return nil
	})
	runs := col.Traces()
	if len(runs) != 1 {
		t.Fatalf("collector holds %d runs, want 1", len(runs))
	}
	s := trace.Summarize(runs...)
	found := false
	for _, p := range s.Phases {
		if p.Name == "barrier" && p.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("collector summary missing the barrier phase: %+v", s.Phases)
	}
}

// TestStallErrorCarriesTraceTail provokes a stall with an injected
// delay (the chaos harness's stall mechanism) on a traced run and
// requires the *StallError to carry per-rank flight-recorder tails that
// name the stalled collective and the fault that caused it.
func TestStallErrorCarriesTraceTail(t *testing.T) {
	const ranks = 3
	tr := trace.New(ranks)
	plan := &FaultPlan{Faults: []Fault{{Rank: 1, Op: 3, Kind: FaultDelay, Delay: 250 * time.Millisecond}}} // 5× the stall timeout
	_, err := RunOpt(ranks, Options{
		Trace:        tr,
		Faults:       plan,
		StallTimeout: 50 * time.Millisecond,
	}, func(c *Ctx) error {
		for i := 0; i < 5; i++ {
			c.Barrier()
		}
		return nil
	})
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("delayed rank produced %v, want *StallError", err)
	}
	if len(stall.Trails) != ranks {
		t.Fatalf("stall carries %d trails, want one per rank: %v", len(stall.Trails), stall.Trails)
	}
	// The blocked ranks' tails end in an open barrier span; the delayed
	// rank's tail shows the injected fault.
	for _, r := range []int{0, 2} {
		if !strings.Contains(stall.Trails[r], "barrier{") {
			t.Errorf("rank %d trail %q does not name the stalled collective", r, stall.Trails[r])
		}
	}
	if !strings.Contains(stall.Trails[1], "fault delay") {
		t.Errorf("rank 1 trail %q does not show the injected delay", stall.Trails[1])
	}
	if !strings.Contains(err.Error(), "flight recorder:") {
		t.Errorf("stall message does not render the trails:\n%v", err)
	}
}
