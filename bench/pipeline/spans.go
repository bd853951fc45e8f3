package pipeline

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed interval recorded by the benchmark around a call
// into a layer: its name, the rank that recorded it, start and end as
// offsets from the run's epoch, and the span that caused it. Spans of
// one cycle share the cycle id across ranks.
type Span struct {
	Name   string
	Rank   int
	Cycle  int
	Parent int // index into the same recorder's spans, -1 for a root
	Start  time.Duration
	End    time.Duration
	// Untimed marks a stage the cycle's stopwatch does not cover (a
	// reset, a plan build, a check).
	Untimed bool
	// Counter deltas over the span, taken on rank 0 only because they
	// are process-wide: heap allocations and pcu traffic.
	Mallocs uint64
	Traffic traffic
}

// Recorder keeps one rank's spans in memory until the run ends. It is
// bounded: beyond its capacity spans are counted as dropped, never
// grown, so recording cannot disturb the allocation metrics.
type Recorder struct {
	rank    int
	epoch   time.Time
	spans   []Span
	dropped int
}

// NewRecorder returns a recorder for one rank holding up to capacity
// spans, timestamping relative to epoch.
func NewRecorder(rank int, epoch time.Time, capacity int) *Recorder {
	return &Recorder{rank: rank, epoch: epoch, spans: make([]Span, 0, capacity)}
}

// Begin opens a span and returns its id (-1 when it was dropped).
func (r *Recorder) Begin(name string, cycle, parent int, untimed bool) int {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, Span{
		Name: name, Rank: r.rank, Cycle: cycle, Parent: parent,
		Untimed: untimed, Start: time.Since(r.epoch), End: -1,
	})
	return len(r.spans) - 1
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if id >= 0 {
		r.spans[id].End = time.Since(r.epoch)
	}
}

// at returns the span with the given id, nil for a dropped one.
func (r *Recorder) at(id int) *Span {
	if id < 0 {
		return nil
	}
	return &r.spans[id]
}

// Spans returns the recorded spans; Dropped how many did not fit.
func (r *Recorder) Spans() []Span { return r.spans }
func (r *Recorder) Dropped() int  { return r.dropped }

// SelfTimes returns, for every span of one recorder, its duration minus
// the part of that interval its direct child spans cover. Overlapping
// children are counted once and children are clipped to the parent.
func SelfTimes(spans []Span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := s.Start
		for _, k := range ivs {
			if k.b <= covered {
				continue
			}
			self[i] -= k.b - max(k.a, covered)
			covered = k.b
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto loads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes the spans of all ranks as a Chrome trace-event
// document: one thread per rank, one complete event per span.
func WriteChrome(w io.Writer, recs []*Recorder) error {
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, r := range recs {
		for id, s := range r.spans {
			if s.End < 0 {
				continue
			}
			args := map[string]any{"cycle": s.Cycle, "id": id, "parent": s.Parent}
			if s.Untimed {
				args["untimed"] = true
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
				Pid: 0, Tid: s.Rank, Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(doc)
}
