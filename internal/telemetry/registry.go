// Package telemetry is the metrics plane of the parallel runtime — the
// paper's "run-time and memory usage counters": a sharded registry of
// fixed-bucket histograms, event counters and sampled gauges, recorded
// from stage spans and inner loops and scraped over HTTP (Serve) without
// perturbing the schedule.
//
// A histogram keeps a count and a sum, so it is a stage timer, and it
// keeps the distribution too — the difference between "exchange cost 3s"
// and "one in a thousand exchanges cost 100x the median", which is the
// straggler signal the paper's load-balancing story turns on.
//
// Two design rules, both load-bearing:
//
//   - Zero steady-state allocations. Series are created once (Histogram,
//     Counter and Gauge return stable handles); recording on a handle —
//     Observe, Set, Add — is a handful of atomic operations on
//     preallocated cells. The repo's AllocsPerRun tests pin this, so
//     recording stays on during benchmarks.
//   - Collective-free, lock-free reads. Every cell is an atomic; a
//     scraper merges lanes with plain loads while ranks keep recording.
//     A scrape is therefore a consistent-enough snapshot (per-cell
//     atomicity, no cross-cell barrier) that never blocks a rank and
//     never enters a collective — scraping cannot deadlock or reorder
//     the schedule it is observing.
//
// Sharding: each series has up to Lanes independent cache-padded lanes and
// a recorder passes its rank as the lane (lane = rank mod lane count), so
// concurrent ranks never contend on a cache line. Reads merge all lanes;
// gauges keep per-lane samples (the per-rank view the introspection
// endpoint serves).
package telemetry

import (
	"fmt"
	"io"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	// Lanes is the most independent accumulation lanes a series keeps
	// (NewRegistry's count; NewSized keeps fewer for narrow runs). Lane
	// counts are powers of two and recorders use lane = rank & (n-1), so
	// runs wider than Lanes stay correct (two ranks share a lane's atomics)
	// and merely contend a little.
	Lanes = 16
	// Buckets is the fixed histogram resolution: power-of-two buckets,
	// bucket i holding values v with 2^(i-1) <= v < 2^i (bucket 0 holds
	// v <= 0 and v == nothing else; values at or beyond 2^(Buckets-2)
	// land in the last bucket). 48 buckets cover nanosecond latencies up
	// to ~39 hours and byte volumes up to 128 TiB.
	Buckets = 48
)

// BucketOf maps a value to its power-of-two bucket index. trace's
// arrival-skew histograms bin through it too, so they share the
// registry's buckets (and its Buckets/BucketLE bounds).
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= Buckets {
		return Buckets - 1
	}
	return b
}

// BucketLE returns the inclusive upper bound of bucket i (the
// Prometheus `le` boundary): 2^i - 1, with bucket 0 bounded at 0.
func BucketLE(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// histLane is one lane's cells, padded so adjacent lanes never share a
// cache line (the same false-sharing defense the trace recorders use).
type histLane struct {
	buckets [Buckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	_       [128 - (Buckets*8+16)%128]byte
}

// Histogram is one named fixed-bucket distribution. The handle is
// stable for the registry's lifetime; all methods are nil-safe.
type Histogram struct {
	name  string
	lanes []histLane
}

// Observe records one value into the lane's cells: three atomic adds,
// no allocation, no lock.
func (h *Histogram) Observe(lane int, v int64) {
	if h == nil {
		return
	}
	l := &h.lanes[lane&(len(h.lanes)-1)]
	l.buckets[BucketOf(v)].Add(1)
	l.count.Add(1)
	l.sum.Add(v)
}

// Count returns the merged observation count across lanes.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.lanes {
		n += h.lanes[i].count.Load()
	}
	return n
}

// Sum returns the merged sum of observed values across lanes.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	var s int64
	for i := range h.lanes {
		s += h.lanes[i].sum.Load()
	}
	return s
}

// Snapshot returns the merged bucket counts, count and sum.
func (h *Histogram) Snapshot() (buckets [Buckets]int64, count, sum int64) {
	if h == nil {
		return
	}
	for i := range h.lanes {
		l := &h.lanes[i]
		for b := range buckets {
			buckets[b] += l.buckets[b].Load()
		}
		count += l.count.Load()
		sum += l.sum.Load()
	}
	return
}

// gaugeLane is one lane's last-sampled value (float64 bits) and a
// set flag, padded against false sharing.
type gaugeLane struct {
	bits atomic.Uint64
	set  atomic.Uint32
	_    [128 - 12]byte
}

// Gauge is one named sampled value per lane: Set overwrites, reads see
// the latest sample. Lanes map to ranks, so the endpoint can show a
// per-rank view (parma.imbalance on rank 3) as well as the merged extremes.
type Gauge struct {
	name  string
	lanes []gaugeLane
}

// Set samples the lane's value: one atomic store, no allocation.
func (g *Gauge) Set(lane int, v float64) {
	if g == nil {
		return
	}
	l := &g.lanes[lane&(len(g.lanes)-1)]
	l.bits.Store(math.Float64bits(v))
	l.set.Store(1)
}

// SetInt samples an integer value.
func (g *Gauge) SetInt(lane int, v int64) { g.Set(lane, float64(v)) }

// Get returns the lane's last sample and whether it was ever set.
func (g *Gauge) Get(lane int) (float64, bool) {
	if g == nil {
		return 0, false
	}
	l := &g.lanes[lane&(len(g.lanes)-1)]
	if l.set.Load() == 0 {
		return 0, false
	}
	return math.Float64frombits(l.bits.Load()), true
}

// counterLane is one lane's running total, padded against false sharing.
type counterLane struct {
	n atomic.Int64
	_ [128 - 8]byte
}

// Counter is one named monotonic event total (plan cache hits, migrated
// elements): Add is a single atomic on the lane's cell, reads merge lanes.
type Counter struct {
	name  string
	lanes []counterLane
}

// Add accumulates n into the lane's cell.
func (c *Counter) Add(lane int, n int64) {
	if c == nil {
		return
	}
	c.lanes[lane&(len(c.lanes)-1)].n.Add(n)
}

// Value returns the merged total across lanes.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.lanes {
		n += c.lanes[i].n.Load()
	}
	return n
}

// Registry holds the named series of one process. Series are created on
// first request and live for the registry's lifetime; handles are
// stable, so hot paths resolve once and record lock-free. All methods
// are nil-safe: a nil registry hands out nil handles whose record
// methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	lanes    int // per series, a power of two <= Lanes
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
	counters map[string]*Counter
}

// NewRegistry creates an empty registry for runs of any width.
func NewRegistry() *Registry { return NewSized(Lanes) }

// NewSized creates an empty registry whose series keep only as many
// lanes as a ranks-wide run can use (a histogram lane is 512 bytes, so
// the registry pcu gives a 2-rank world of its own costs 1 KB a series
// instead of 8).
func NewSized(ranks int) *Registry {
	lanes := 1
	for lanes < ranks && lanes < Lanes {
		lanes <<= 1
	}
	return &Registry{
		lanes:    lanes,
		hists:    map[string]*Histogram{},
		gauges:   map[string]*Gauge{},
		counters: map[string]*Counter{},
	}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name, lanes: make([]histLane, r.lanes)}
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name, lanes: make([]gaugeLane, r.lanes)}
		r.gauges[name] = g
	}
	return g
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name, lanes: make([]counterLane, r.lanes)}
		r.counters[name] = c
	}
	return c
}

// byName returns m's values ordered by key, so no render depends on map
// iteration or series-creation order. Callers hold r.mu.
func byName[T any](m map[string]T) []T {
	out := make([]T, 0, len(m))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		out = append(out, m[k])
	}
	return out
}

// Report renders every non-empty histogram (observation count and sum)
// and counter, each kind sorted by name, one per line: the state a stall
// diagnosis carries. Equal totals render byte-identically, whichever
// rank created or fed a series first.
func (r *Registry) Report() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	hists, counters := byName(r.hists), byName(r.counters)
	r.mu.Unlock()
	var b strings.Builder
	for _, h := range hists {
		if n := h.Count(); n != 0 {
			fmt.Fprintf(&b, "hist  %-32s n=%d sum=%d\n", h.name, n, h.Sum())
		}
	}
	for _, c := range counters {
		if v := c.Value(); v != 0 {
			fmt.Fprintf(&b, "count %-32s %d\n", c.name, v)
		}
	}
	return b.String()
}

// promName sanitizes a series name into a legal Prometheus metric name:
// dots and dashes become underscores and the pumi_ namespace is
// prefixed.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("pumi_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_',
			c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (version 0.0.4), deterministically: series sorted by name,
// histogram buckets in le order with trailing empties trimmed, gauges
// one sample per set lane labeled by rank, counters as one merged
// _total sample. The render is lock-free over the cells (atomic loads),
// so a scrape never blocks a recording rank.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hists, gauges, counters := byName(r.hists), byName(r.gauges), byName(r.counters)
	r.mu.Unlock()

	for _, h := range hists {
		buckets, count, sum := h.Snapshot()
		pn := promName(h.name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		last := 0
		for i, v := range buckets {
			if v != 0 {
				last = i
			}
		}
		var cum int64
		for i := 0; i <= last; i++ {
			cum += buckets[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, BucketLE(i), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, count)
		fmt.Fprintf(w, "%s_sum %d\n", pn, sum)
		fmt.Fprintf(w, "%s_count %d\n", pn, count)
	}
	for _, g := range gauges {
		pn := promName(g.name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", pn); err != nil {
			return err
		}
		any := false
		for lane := range g.lanes {
			if v, ok := g.Get(lane); ok {
				fmt.Fprintf(w, "%s{rank=\"%d\"} %g\n", pn, lane, v)
				any = true
			}
		}
		if !any {
			fmt.Fprintf(w, "%s 0\n", pn)
		}
	}
	for _, c := range counters {
		pn := promName(c.name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s_total %d\n", pn, pn, c.Value()); err != nil {
			return err
		}
	}
	return nil
}
