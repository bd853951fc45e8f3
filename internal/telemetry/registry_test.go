package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestBucketing(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 40, 41}, {math.MaxInt64, Buckets - 1},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must satisfy BucketLE(i-1) < v <= BucketLE(i).
	for _, v := range []int64{1, 2, 3, 100, 1 << 20, 1<<47 - 1} {
		i := BucketOf(v)
		if v > BucketLE(i) {
			t.Errorf("value %d above its bucket %d bound %d", v, i, BucketLE(i))
		}
		if i > 0 && v <= BucketLE(i-1) {
			t.Errorf("value %d not above bucket %d's lower bound %d", v, i, BucketLE(i-1))
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.ns")
	var wg sync.WaitGroup
	for lane := 0; lane < Lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(lane, int64(i))
			}
		}(lane)
	}
	wg.Wait()
	if got := h.Count(); got != Lanes*1000 {
		t.Fatalf("count = %d, want %d", got, Lanes*1000)
	}
	wantSum := int64(Lanes) * (999 * 1000 / 2)
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %d, want %d", got, wantSum)
	}
	buckets, count, _ := h.Snapshot()
	var tot int64
	for _, b := range buckets {
		tot += b
	}
	if tot != count {
		t.Fatalf("bucket total %d != count %d", tot, count)
	}
	if again := r.Histogram("test.ns"); again != h {
		t.Fatal("handle not stable across lookups")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test.depth")
	if _, ok := g.Get(3); ok {
		t.Fatal("unset gauge reported set")
	}
	g.Set(3, 7.5)
	if v, ok := g.Get(3); !ok || v != 7.5 {
		t.Fatalf("got %v %v, want 7.5 true", v, ok)
	}
	// Lane masking: lane Lanes aliases lane 0.
	g.SetInt(Lanes, 11)
	if v, _ := g.Get(0); v != 11 {
		t.Fatalf("lane aliasing got %v, want 11", v)
	}
}

// TestCounter: concurrent adds from more ranks than a series has lanes
// merge to the exact total (lanes alias, they do not grow), in a
// full-width registry and in one sized for a narrow run.
func TestCounter(t *testing.T) {
	for _, r := range []*Registry{NewRegistry(), NewSized(3)} {
		c := r.Counter("test.events")
		var wg sync.WaitGroup
		for lane := 0; lane < 2*Lanes; lane++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					c.Add(lane, 2)
				}
			}()
		}
		wg.Wait()
		if got, want := c.Value(), int64(2*Lanes*1000*2); got != want {
			t.Fatalf("%d lanes: Value = %d, want %d", len(c.lanes), got, want)
		}
		if again := r.Counter("test.events"); again != c {
			t.Fatal("handle not stable across lookups")
		}
	}
	if n := len(NewSized(3).Histogram("x").lanes); n != 4 {
		t.Fatalf("a 3-rank registry keeps %d lanes a series, want 4", n)
	}
}

// TestReport: the stall-report rendering depends only on the totals —
// not on which series was created or fed first — lists histograms then
// counters, each sorted by name, and leaves out series nothing recorded
// into.
func TestReport(t *testing.T) {
	feed := func(order []string) string {
		r := NewRegistry()
		for _, name := range order {
			r.Histogram(name+".ns").Observe(len(name), 1500)
			r.Counter(name).Add(len(name), 3)
		}
		r.Histogram("never.ns")
		r.Counter("never")
		return r.Report()
	}
	got := feed([]string{"migrate", "ghost", "balance"})
	if again := feed([]string{"balance", "migrate", "ghost"}); again != got {
		t.Fatalf("report depends on creation order:\n%s\nvs\n%s", got, again)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		names = append(names, strings.Join(strings.Fields(line)[:2], " "))
	}
	want := "hist balance.ns,hist ghost.ns,hist migrate.ns,count balance,count ghost,count migrate"
	if strings.Join(names, ",") != want {
		t.Fatalf("report lists %q, want %q:\n%s", names, want, got)
	}
	if !strings.Contains(got, "n=1 sum=1500") {
		t.Fatalf("report lost a histogram's count and sum:\n%s", got)
	}
	if (*Registry)(nil).Report() != "" || NewRegistry().Report() != "" {
		t.Fatal("a registry with nothing recorded must report nothing")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	h := r.Histogram("x")
	g := r.Gauge("x")
	c := r.Counter("x")
	c.Add(0, 1)
	h.Observe(0, 1)
	g.Set(0, 1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	if _, ok := g.Get(0); ok {
		t.Fatal("nil gauge reported set")
	}
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("partition.plan.exec.ns")
	for i := int64(1); i <= 100; i++ {
		h.Observe(int(i), i*1000)
	}
	r.Gauge("parma.imbalance").SetInt(0, 8)
	r.Gauge("empty.gauge")
	r.Counter("partition.plan.hit").Add(0, 5)
	r.Counter("partition.plan.hit").Add(1, 7)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pumi_partition_plan_exec_ns histogram",
		`pumi_partition_plan_exec_ns_bucket{le="+Inf"} 100`,
		"pumi_partition_plan_exec_ns_count 100",
		"# TYPE pumi_parma_imbalance gauge",
		`pumi_parma_imbalance{rank="0"} 8`,
		"pumi_empty_gauge 0",
		"# TYPE pumi_partition_plan_hit counter",
		"pumi_partition_plan_hit_total 12",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	n, err := ValidatePrometheus(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidatePrometheus: %v\n%s", err, out)
	}
	if n == 0 {
		t.Fatal("no samples")
	}
	// Determinism: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("render not deterministic")
	}
}

func TestValidatePrometheusRejects(t *testing.T) {
	bad := [][]byte{
		[]byte(""),
		[]byte("metric with spaces 1\n"),
		[]byte("# TYPE m unknowntype\nm 1\n"),
		[]byte("# TYPE m histogram\nm_bucket{le=\"4\"} 5\nm_bucket{le=\"2\"} 6\n"),
		[]byte("# TYPE m histogram\nm_bucket{le=\"2\"} 5\nm_bucket{le=\"4\"} 3\n"),
		[]byte("m notanumber\n"),
	}
	for i, b := range bad {
		if _, err := ValidatePrometheus(b); err == nil {
			t.Errorf("case %d: bad input accepted:\n%s", i, b)
		}
	}
}

// The record paths must not allocate: every run records into a registry,
// benchmarks included. The pins self-skip under -race, matching
// internal/pcu/alloc_test.go.
func allocGate(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc pins are meaningless under -race")
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	allocGate(t)
	h := NewRegistry().Histogram("alloc.test")
	if avg := testing.AllocsPerRun(1000, func() {
		h.Observe(3, 12345)
	}); avg != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op, want 0", avg)
	}
}

func TestGaugeSampleAllocs(t *testing.T) {
	allocGate(t)
	g := NewRegistry().Gauge("alloc.test")
	if avg := testing.AllocsPerRun(1000, func() {
		g.SetInt(3, 42)
	}); avg != 0 {
		t.Fatalf("Gauge sample allocates %v/op, want 0", avg)
	}
}
