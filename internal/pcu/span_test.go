package pcu

import (
	"errors"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/fastmath/pumi-go/internal/telemetry"
	"github.com/fastmath/pumi-go/internal/trace"
)

// seamArmings are the two states a world can be in when a span or a
// count records: unarmed (nil recorder) and flight recorder armed. The
// registry is always there — world-private unless SetDefaultMetrics
// installed one.
var seamArmings = []struct {
	name string
	opt  func() Options
}{
	{"unarmed", func() Options { return Options{} }},
	{"traced", func() Options { return Options{Trace: trace.New(1)} }},
}

// seamZeroAlloc requires record to allocate nothing once its series
// exists, under every arming.
func seamZeroAlloc(t *testing.T, record func(c *Ctx)) {
	allocGate(t)
	for _, a := range seamArmings {
		opt := a.opt()
		opt.StallTimeout = -1
		avg := -1.0
		RunOpt(1, opt, func(c *Ctx) error {
			record(c) // first use creates the series
			avg = testing.AllocsPerRun(100, func() { record(c) })
			return nil
		})
		if avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", a.name, avg)
		}
	}
}

// TestSpanZeroAlloc pins the one-line stage idiom at zero allocations:
// the Span value, the deferred End and the name→handle lookup.
func TestSpanZeroAlloc(t *testing.T) {
	seamZeroAlloc(t, func(c *Ctx) { defer c.Span("alloc.test").End() })
}

// TestCounterAddZeroAlloc pins Count on an existing series: a map hit in
// the rank's own cache plus one atomic add.
func TestCounterAddZeroAlloc(t *testing.T) {
	seamZeroAlloc(t, func(c *Ctx) { c.Count("alloc.test", 1) })
}

// TestSpanRecordsOnce: one Span reaches both observers exactly once —
// one Begin/End pair in the rank's ring and one observation, of a
// plausible duration, in "<name>.ns".
func TestSpanRecordsOnce(t *testing.T) {
	tr := trace.New(1)
	var reg *telemetry.Registry
	_, err := RunOpt(1, Options{Trace: tr}, func(c *Ctx) error {
		reg = c.Metrics()
		s := c.Span("stage")
		time.Sleep(time.Millisecond)
		s.End()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	begins, ends := 0, 0
	for _, e := range tr.Rank(0).Snapshot() {
		switch {
		case e.Name != "stage":
		case e.Kind == trace.KindBegin:
			begins++
		case e.Kind == trace.KindEnd:
			ends++
		}
	}
	if begins != 1 || ends != 1 {
		t.Errorf("ring holds %d begin / %d end events for the span, want 1 / 1", begins, ends)
	}
	h := reg.Histogram("stage.ns")
	if h.Count() != 1 || h.Sum() < int64(time.Millisecond) {
		t.Errorf("stage.ns has %d observations totalling %d ns, want 1 of at least 1ms", h.Count(), h.Sum())
	}
}

// TestStallCountersDeterministic: a stall diagnosis of a run nobody
// supplied a registry to still carries what the run recorded, sorted by
// name and identical from run to run, however the ranks interleaved
// creating the series.
func TestStallCountersDeterministic(t *testing.T) {
	const ranks = 3
	names := []string{"b.events", "c.events", "a.events"}
	run := func() string {
		plan := &FaultPlan{Faults: []Fault{{Rank: 1, Op: 2, Kind: FaultVanish}}}
		_, err := RunOpt(ranks, Options{Faults: plan, StallTimeout: 100 * time.Millisecond}, func(c *Ctx) error {
			c.Span("z.stage").End()
			for i := range names { // each rank creates the series in its own order
				c.Count(names[(i+c.Rank())%len(names)], int64(i+1))
			}
			c.Span("a.stage").End()
			for i := 0; i < 4; i++ {
				c.Barrier()
			}
			return nil
		})
		var stall *StallError
		if !errors.As(err, &stall) {
			t.Fatalf("vanished rank produced %v, want *StallError", err)
		}
		if !strings.Contains(err.Error(), "counters:") {
			t.Errorf("stall message does not render the counters:\n%v", err)
		}
		// Span totals are wall-clock; everything else must repeat.
		return regexp.MustCompile(`sum=\d+`).ReplaceAllString(stall.Counters, "sum=T")
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("stall counters differ between identical runs:\n%s\nvs\n%s", a, b)
	}
	var kinds, series []string
	for _, line := range strings.Split(strings.TrimRight(a, "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			t.Fatalf("malformed counters line %q in:\n%s", line, a)
		}
		kinds, series = append(kinds, f[0]), append(series, f[0]+" "+f[1])
	}
	want := []string{"hist", "hist", "count", "count", "count"}
	if strings.Join(kinds, " ") != strings.Join(want, " ") || !sort.StringsAreSorted(series[:2]) || !sort.StringsAreSorted(series[2:]) {
		t.Errorf("stall counters are not the run's 2 spans then 3 counts, each name-sorted:\n%s", a)
	}
	if !strings.Contains(a, "n=3 sum=T") || !strings.Contains(a, "a.events") {
		t.Errorf("stall counters lost a rank's records:\n%s", a)
	}
}
