package trace

// Critical-path analysis: who made each collective late, and what were
// they doing instead.
//
// In a bulk-synchronous run every collective ends when its *last* rank
// arrives — the paper's load-balancing story (ParMA §) is entirely
// about shrinking that arrival skew. The analyzer groups the k-th
// occurrence of each span name across ranks into one phase *instance*,
// reads each rank's Begin timestamp as its arrival, and blames the
// instance's cost on the last-arriving rank. The span that rank closed
// most recently before arriving is the work that delayed it — compute,
// a prior collective, an I/O phase — which is exactly the attribution
// a re-partitioner needs ("rank 3 is late into every exchange because
// its migrate unpack runs long").
//
// This is the repo's one arrival-skew computation: pcu records the
// Begin/End spans and nothing else measures skew. The histograms bin
// through telemetry.BucketOf, so they share the registry's power-of-two
// buckets. A live /trace scrape feeds it as well as a finished timeline.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/fastmath/pumi-go/internal/telemetry"
)

// DelaySpan counts how often one span was the last thing the blamed
// rank finished before arriving late.
type DelaySpan struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// PhaseBlame aggregates the straggler attribution of one span name.
type PhaseBlame struct {
	// Name is the span name (e.g. "pcu.exchange").
	Name string `json:"name"`
	// Instances is how many cross-rank occurrences were matched.
	Instances int `json:"instances"`
	// TotalSkewNs sums each instance's last-minus-first arrival gap.
	TotalSkewNs int64 `json:"total_skew_ns"`
	// MaxSkewNs is the worst single instance's gap, MaxSkewRank the rank
	// that arrived last in it.
	MaxSkewNs   int64 `json:"max_skew_ns"`
	MaxSkewRank int   `json:"max_skew_rank"`
	// BlamedCount[r] is how many instances rank r arrived last in.
	BlamedCount []int64 `json:"blamed_count"`
	// DelayedBy counts the spans the blamed ranks closed immediately
	// before arriving, largest count first (name-ascending on ties).
	DelayedBy []DelaySpan `json:"delayed_by,omitempty"`
	// SkewHist is the arrival-skew distribution in telemetry's
	// power-of-two nanosecond buckets.
	SkewHist [telemetry.Buckets]int64 `json:"skew_hist"`
}

// CriticalPathReport is the per-phase straggler blame table of one run.
type CriticalPathReport struct {
	Ranks  int          `json:"ranks"`
	Phases []PhaseBlame `json:"phases"`
}

// arrival is one rank's entry into one phase instance.
type arrival struct {
	t       int64
	prevEnd string // span this rank closed most recently before arriving
	set     bool
}

// CriticalPathEvents computes the blame table from per-rank event
// streams (index = rank, events in chronological order). The result is
// deterministic: it depends only on the event contents, not on map
// iteration or the order ranks were registered or merged.
func CriticalPathEvents(perRank [][]Event) *CriticalPathReport {
	ranks := len(perRank)
	// instances[name] holds one slot per occurrence index, each with one
	// arrival per rank.
	type instanceSet struct {
		name string
		occ  [][]arrival // occ[k][rank]
	}
	byName := map[string]*instanceSet{}
	var names []string
	for rank, events := range perRank {
		// Occurrence pairing is positional, so each rank's stream must be
		// chronological. A merged capture (Collector, live multi-world
		// snapshots) concatenates runs in registration order; the stable
		// sort makes the table independent of that order.
		if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].T < events[j].T }) {
			events = append([]Event(nil), events...)
			sort.SliceStable(events, func(i, j int) bool { return events[i].T < events[j].T })
		}
		occCount := map[string]int{}
		prevEnd := ""
		for _, e := range events {
			switch e.Kind {
			case KindBegin:
				set := byName[e.Name]
				if set == nil {
					set = &instanceSet{name: e.Name}
					byName[e.Name] = set
					names = append(names, e.Name)
				}
				k := occCount[e.Name]
				occCount[e.Name] = k + 1
				for len(set.occ) <= k {
					set.occ = append(set.occ, make([]arrival, ranks))
				}
				set.occ[k][rank] = arrival{t: e.T, prevEnd: prevEnd, set: true}
			case KindEnd:
				prevEnd = e.Name
			}
		}
	}
	sort.Strings(names)

	report := &CriticalPathReport{Ranks: ranks}
	for _, name := range names {
		set := byName[name]
		pb := PhaseBlame{Name: name, BlamedCount: make([]int64, ranks)}
		delayed := map[string]int{}
		for _, arr := range set.occ {
			first, last := int64(math.MaxInt64), int64(math.MinInt64)
			blamed, n := -1, 0
			for r := ranks - 1; r >= 0; r-- {
				a := arr[r]
				if !a.set {
					continue
				}
				n++
				if a.t < first {
					first = a.t
				}
				// >= with the descending rank scan blames the lowest rank
				// on exact timestamp ties — deterministic either way.
				if a.t >= last {
					last, blamed = a.t, r
				}
			}
			if n < 2 {
				continue // a span one rank ran alone has no skew to blame
			}
			skew := last - first
			pb.Instances++
			pb.TotalSkewNs += skew
			pb.BlamedCount[blamed]++
			pb.SkewHist[telemetry.BucketOf(skew)]++
			if skew > pb.MaxSkewNs || pb.Instances == 1 {
				pb.MaxSkewNs, pb.MaxSkewRank = skew, blamed
			}
			if p := arr[blamed].prevEnd; p != "" {
				delayed[p]++
			}
		}
		if pb.Instances == 0 {
			continue
		}
		for dn, c := range delayed {
			pb.DelayedBy = append(pb.DelayedBy, DelaySpan{Name: dn, Count: c})
		}
		sort.Slice(pb.DelayedBy, func(i, j int) bool {
			a, b := pb.DelayedBy[i], pb.DelayedBy[j]
			if a.Count != b.Count {
				return a.Count > b.Count
			}
			return a.Name < b.Name
		})
		report.Phases = append(report.Phases, pb)
	}
	// Costliest skew first; name breaks ties so the table is stable.
	sort.SliceStable(report.Phases, func(i, j int) bool {
		a, b := report.Phases[i], report.Phases[j]
		if a.TotalSkewNs != b.TotalSkewNs {
			return a.TotalSkewNs > b.TotalSkewNs
		}
		return a.Name < b.Name
	})
	return report
}

// CriticalPathChrome computes the blame table from an exported Chrome
// timeline (as written by WriteChrome; gzip-transparent). Only B/E
// records participate — instants and counters carry no arrival info.
func CriticalPathChrome(data []byte) (*CriticalPathReport, error) {
	perRank, err := chromeSpans(data)
	if err != nil {
		return nil, err
	}
	return CriticalPathEvents(perRank), nil
}

// Format renders the blame table as the text `pumi-trace -critical`
// prints. The output is deterministic for a given report.
func (r *CriticalPathReport) Format(w io.Writer) {
	if r == nil || len(r.Phases) == 0 {
		fmt.Fprintln(w, "critical path: no multi-rank phases found")
		return
	}
	var instances int
	var total int64
	for _, p := range r.Phases {
		instances += p.Instances
		total += p.TotalSkewNs
	}
	fmt.Fprintf(w, "critical path: %d ranks, %d phases, %d instances, total arrival skew %v\n",
		r.Ranks, len(r.Phases), instances, time.Duration(total).Round(time.Microsecond))
	for _, p := range r.Phases {
		avg := time.Duration(0)
		if p.Instances > 0 {
			avg = time.Duration(p.TotalSkewNs / int64(p.Instances))
		}
		// The most-blamed rank, lowest rank on ties.
		worst, worstN := 0, int64(-1)
		for rk, c := range p.BlamedCount {
			if c > worstN {
				worst, worstN = rk, c
			}
		}
		fmt.Fprintf(w, "  %-28s n=%-5d total %-12v avg %-10v max %v (rank %d)  blames rank %d in %d/%d\n",
			p.Name, p.Instances,
			time.Duration(p.TotalSkewNs).Round(time.Microsecond),
			avg.Round(time.Microsecond),
			time.Duration(p.MaxSkewNs).Round(time.Microsecond), p.MaxSkewRank,
			worst, worstN, p.Instances)
		if len(p.DelayedBy) > 0 {
			parts := make([]string, 0, len(p.DelayedBy))
			for _, d := range p.DelayedBy {
				parts = append(parts, fmt.Sprintf("%s ×%d", d.Name, d.Count))
			}
			fmt.Fprintf(w, "    delayed by: %s\n", strings.Join(parts, ", "))
		}
		var hist []string
		for i, c := range p.SkewHist {
			if c != 0 {
				hist = append(hist, fmt.Sprintf("≤%v:%d", time.Duration(telemetry.BucketLE(i)), c))
			}
		}
		if len(hist) > 0 {
			fmt.Fprintf(w, "    skew histogram: %s\n", strings.Join(hist, " "))
		}
	}
}
