package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeSchema identifies the Chrome trace-event export of this
// package (stored under otherData.schema, since the top-level format is
// fixed by the trace-event spec).
const ChromeSchema = "pumi-trace/chrome/1"

// ChromeDoc is the JSON-object form of the Chrome trace-event format:
// loadable by Perfetto and chrome://tracing.
type ChromeDoc struct {
	TraceEvents     []ChromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// ChromeEvent is one trace-event record. Ts and Dur are microseconds
// (the unit the format fixes); Pid groups the run, Tid is the rank so
// each rank renders as its own track.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(t int64) float64 { return float64(t) / 1e3 }

// WriteChrome writes the merged timeline of the given runs as Chrome
// trace-event JSON: one thread track per rank (rank r of every trace
// lands on track r), spans for Begin/End pairs, instants for sends,
// points and faults, and a counter track for the ParMA imbalance
// series. Open the file at https://ui.perfetto.dev or chrome://tracing.
func WriteChrome(w io.Writer, traces ...*Trace) error {
	c := capture(traces)
	doc := ChromeDoc{
		TraceEvents:     []ChromeEvent{},
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"schema": ChromeSchema},
	}
	var lastT int64
	for rank, events := range c.perRank {
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)},
		})
		// Span matching: a ring that wrapped may retain an End without
		// its Begin (dropped off the head) — skip those — and the run may
		// have died inside a span, leaving a Begin without its End —
		// close those at the last timestamp seen so Perfetto still
		// renders them.
		var stack []string // names of the open spans, innermost last
		for _, e := range events {
			if e.T > lastT {
				lastT = e.T
			}
			switch e.Kind {
			case KindBegin:
				stack = append(stack, e.Name)
				doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{Name: e.Name, Ph: "B", Ts: usec(e.T), Pid: 0, Tid: rank})
			case KindEnd:
				i := len(stack) - 1 // the innermost open span of that name
				for i >= 0 && stack[i] != e.Name {
					i--
				}
				if i < 0 {
					continue // orphan End: its Begin was overwritten by ring wrap
				}
				// Close anything opened after it first (the B was
				// overwritten mid-span or the span was abandoned by a
				// panic unwind) so the B/E nesting stays well-formed.
				for j := len(stack) - 1; j >= i; j-- {
					doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
						Name: stack[j], Ph: "E", Ts: usec(e.T), Pid: 0, Tid: rank,
					})
				}
				stack = stack[:i]
			case KindPoint:
				doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
					Name: e.Name, Ph: "i", Ts: usec(e.T), Pid: 0, Tid: rank, S: "t",
					Args: map[string]any{"value": e.A},
				})
			case KindSend:
				onNode := e.V != 0
				doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
					Name: "send", Ph: "i", Ts: usec(e.T), Pid: 0, Tid: rank, S: "t",
					Args: map[string]any{"peer": e.A, "bytes": e.B, "on_node": onNode},
				})
			case KindParmaIter:
				doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
					Name: "parma.imbalance", Ph: "C", Ts: usec(e.T), Pid: 0, Tid: rank,
					Args: map[string]any{"imb": e.V},
				})
				doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
					Name: "parma.iter", Ph: "i", Ts: usec(e.T), Pid: 0, Tid: rank, S: "t",
					Args: map[string]any{"dim": e.A, "iter": e.B, "imb": e.V},
				})
			case KindFault:
				doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
					Name: "fault:" + e.Name, Ph: "i", Ts: usec(e.T), Pid: 0, Tid: rank, S: "t",
					Args: map[string]any{"op": e.A},
				})
			}
		}
		// Synthesize Ends for spans the run never closed.
		for j := len(stack) - 1; j >= 0; j-- {
			doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
				Name: stack[j], Ph: "E", Ts: usec(lastT), Pid: 0, Tid: rank,
			})
		}
		if d := c.dropped[rank]; d > 0 {
			doc.OtherData[fmt.Sprintf("dropped_rank_%d", rank)] = fmt.Sprint(d)
		}
	}
	// The trace-event spec wants records sorted by timestamp; a stable
	// sort keeps the B-before-E order of zero-length spans.
	sort.SliceStable(doc.TraceEvents, func(i, j int) bool {
		return doc.TraceEvents[i].Ts < doc.TraceEvents[j].Ts
	})
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
