package trace

import (
	"encoding/json"
	"io"
	"math/bits"
	"sort"
)

// SummarySchema identifies the metrics-summary JSON document.
const SummarySchema = "pumi-trace/summary/1"

// Summary is the aggregate view of a trace: where the time went per
// phase and how unevenly, who talked to whom and how much, and how the
// ParMA imbalance trajectory evolved. It is the machine-readable
// counterpart of the Chrome timeline, written alongside pumi-bench
// -json output.
type Summary struct {
	Schema  string `json:"schema"`
	Ranks   int    `json:"ranks"`
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped"`

	// Phases aggregates matched Begin/End spans by name across ranks.
	Phases []PhaseStat `json:"phases"`
	// Neighbors aggregates sends per (rank, peer) pair.
	Neighbors []NeighborStat `json:"neighbors,omitempty"`
	// Parma is the imbalance-vs-iteration series (taken from rank 0,
	// which observes the same allreduced imbalance as every rank).
	Parma []ParmaPoint `json:"parma,omitempty"`
}

// PhaseStat aggregates one span name across all ranks. Imbalance is
// max/avg of the per-rank totals — the paper's load-imbalance metric
// applied to time instead of element counts (1.0 = perfectly even).
type PhaseStat struct {
	Name       string  `json:"name"`
	Count      int64   `json:"count"`
	TotalSec   float64 `json:"total_sec"`
	MaxRankSec float64 `json:"max_rank_sec"`
	AvgRankSec float64 `json:"avg_rank_sec"`
	Imbalance  float64 `json:"imbalance"`
}

// NeighborStat aggregates the messages one rank delivered to one peer.
// Hist buckets message sizes by power of two: Hist[i] counts messages
// with 2^i <= bytes < 2^(i+1) (Hist[0] also counts empty payloads).
type NeighborStat struct {
	Rank       int      `json:"rank"`
	Peer       int      `json:"peer"`
	Msgs       int64    `json:"msgs"`
	Bytes      int64    `json:"bytes"`
	OnNodeMsgs int64    `json:"on_node_msgs"`
	Hist       []uint64 `json:"hist"`
}

// ParmaPoint is one balancing iteration's measured peak imbalance.
type ParmaPoint struct {
	Dim  int     `json:"dim"`
	Iter int     `json:"iter"`
	Imb  float64 `json:"imb"`
}

// histBucket maps a payload size to its power-of-two histogram bucket.
func histBucket(bytes int64) int {
	if bytes <= 1 {
		return 0
	}
	return 63 - bits.LeadingZeros64(uint64(bytes))
}

// Summarize computes the aggregate view of the given runs, merged as
// WriteChrome merges them.
func Summarize(traces ...*Trace) *Summary { return summarize(capture(traces)) }

// WriteSummary writes the metrics summary of the given runs as indented
// JSON.
func WriteSummary(w io.Writer, traces ...*Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Summarize(traces...))
}

// ChromePhases reads an exported Chrome timeline (gzip-transparent) back
// into the per-phase table Summarize computes from the live recorders,
// by the same span matching. Timestamps come back at the file's
// microsecond-with-fraction precision.
func ChromePhases(data []byte) ([]PhaseStat, error) {
	perRank, err := chromeSpans(data)
	if err != nil {
		return nil, err
	}
	return summarize(captured{perRank: perRank, dropped: make([]uint64, len(perRank))}).Phases, nil
}

func summarize(c captured) *Summary {
	s := &Summary{Schema: SummarySchema, Ranks: len(c.perRank)}

	type phaseAcc struct {
		count   int64
		perRank []float64 // seconds per rank
	}
	phases := map[string]*phaseAcc{}
	type nbrKey struct{ rank, peer int }
	nbrs := map[nbrKey]*NeighborStat{}

	for rank, events := range c.perRank {
		s.Events += uint64(len(events))
		s.Dropped += c.dropped[rank]
		// Per-rank span stack; unmatched events at ring edges are
		// skipped, unclosed spans contribute nothing (their cost is
		// unknowable without an End).
		type open struct {
			name string
			t    int64
		}
		var stack []open
		for _, e := range events {
			switch e.Kind {
			case KindBegin:
				stack = append(stack, open{name: e.Name, t: e.T})
			case KindEnd:
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].name != e.Name {
						continue
					}
					acc := phases[e.Name]
					if acc == nil {
						acc = &phaseAcc{perRank: make([]float64, len(c.perRank))}
						phases[e.Name] = acc
					}
					acc.count++
					acc.perRank[rank] += float64(e.T-stack[i].t) / 1e9
					stack = stack[:i]
					break
				}
			case KindSend:
				k := nbrKey{rank: rank, peer: int(e.A)}
				ns := nbrs[k]
				if ns == nil {
					ns = &NeighborStat{Rank: rank, Peer: int(e.A), Hist: make([]uint64, 32)}
					nbrs[k] = ns
				}
				ns.Msgs++
				ns.Bytes += e.B
				if e.V != 0 {
					ns.OnNodeMsgs++
				}
				if b := histBucket(e.B); b < len(ns.Hist) {
					ns.Hist[b]++
				} else {
					ns.Hist[len(ns.Hist)-1]++
				}
			case KindParmaIter:
				if rank == 0 {
					s.Parma = append(s.Parma, ParmaPoint{Dim: int(e.A), Iter: int(e.B), Imb: e.V})
				}
			}
		}
	}

	for name, acc := range phases {
		ps := PhaseStat{Name: name, Count: acc.count}
		for _, sec := range acc.perRank {
			ps.TotalSec += sec
			ps.MaxRankSec = max(ps.MaxRankSec, sec)
		}
		ps.AvgRankSec = ps.TotalSec / float64(len(acc.perRank))
		if ps.AvgRankSec > 0 {
			ps.Imbalance = ps.MaxRankSec / ps.AvgRankSec
		}
		s.Phases = append(s.Phases, ps)
	}
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].Name < s.Phases[j].Name })

	for _, ns := range nbrs {
		// Trim trailing empty histogram buckets for readable JSON.
		last := 0
		for i, v := range ns.Hist {
			if v != 0 {
				last = i
			}
		}
		ns.Hist = ns.Hist[:last+1]
		s.Neighbors = append(s.Neighbors, *ns)
	}
	sort.Slice(s.Neighbors, func(i, j int) bool {
		a, b := s.Neighbors[i], s.Neighbors[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Peer < b.Peer
	})
	return s
}
