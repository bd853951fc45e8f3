package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// FileKind reports which trace document a JSON file holds.
type FileKind int

const (
	// FileUnknown is a file matching neither schema.
	FileUnknown FileKind = iota
	// FileChrome is a Chrome trace-event timeline (ChromeSchema).
	FileChrome
	// FileSummary is a metrics summary (SummarySchema).
	FileSummary
)

func (k FileKind) String() string {
	switch k {
	case FileChrome:
		return "chrome"
	case FileSummary:
		return "summary"
	}
	return "unknown"
}

// MaybeGunzip transparently decompresses gzip data (sniffed by the
// 0x1f 0x8b magic) and passes anything else through untouched. Long
// chaos soaks gzip their multi-MB exports; every reader in this package
// and in pumi-trace accepts both forms.
func MaybeGunzip(data []byte) ([]byte, error) {
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		return data, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("gzip: %w", err)
	}
	defer zr.Close()
	out, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("gzip: %w", err)
	}
	return out, nil
}

// chromeSpans reads an exported Chrome timeline (as WriteChrome writes
// it; gzip-transparent) back into per-rank Begin/End events — the one
// reader behind CriticalPathChrome and ChromePhases. Only B/E records
// come back: instants and counters carry no span.
func chromeSpans(data []byte) ([][]Event, error) {
	data, err := MaybeGunzip(data)
	if err != nil {
		return nil, err
	}
	kind, err := ValidateFile(data)
	if err != nil {
		return nil, err
	}
	if kind != FileChrome {
		return nil, fmt.Errorf("need a chrome timeline, got a %s file", kind)
	}
	var doc ChromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	// The result is sized by rank, so a track id must name a rank: the
	// tracks are 0..n-1, as WriteChrome numbers them, never an id a
	// forged file picks.
	maxTid := -1
	tracks := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Tid >= 0 {
			tracks[e.Tid] = true
		}
		if e.Ph != "M" && e.Tid > maxTid {
			maxTid = e.Tid
		}
	}
	if maxTid >= len(tracks) {
		return nil, fmt.Errorf("chrome trace: rank %d in a timeline of %d tracks; tracks must be ranks 0..n-1", maxTid, len(tracks))
	}
	perRank := make([][]Event, maxTid+1)
	for _, e := range doc.TraceEvents {
		kind := KindBegin
		switch {
		case e.Tid < 0 || e.Tid > maxTid:
			continue
		case e.Ph == "E":
			kind = KindEnd
		case e.Ph != "B":
			continue
		}
		ns := math.Round(e.Ts * 1e3) // µs back to ns
		if ns >= math.MaxInt64 {
			return nil, fmt.Errorf("chrome trace: ts %g µs is past the int64 ns range", e.Ts)
		}
		perRank[e.Tid] = append(perRank[e.Tid], Event{T: int64(ns), Kind: kind, Name: e.Name})
	}
	return perRank, nil
}

// ValidateFile detects which trace document data holds and checks it
// structurally: schema tag, required fields, per-rank B/E span nesting
// for timelines, and phase/neighbor invariants for summaries. Gzipped
// exports (.json.gz) are decompressed transparently. It is the check
// `pumi-trace -validate` and the trace-smoke CI lane run against
// emitted files.
func ValidateFile(data []byte) (FileKind, error) {
	data, err := MaybeGunzip(data)
	if err != nil {
		return FileUnknown, err
	}
	var probe struct {
		Schema    string `json:"schema"`
		OtherData struct {
			Schema string `json:"schema"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return FileUnknown, fmt.Errorf("not JSON: %w", err)
	}
	switch {
	case probe.OtherData.Schema == ChromeSchema:
		return FileChrome, validateChrome(data)
	case probe.Schema == SummarySchema:
		return FileSummary, validateSummary(data)
	case probe.OtherData.Schema != "":
		return FileUnknown, fmt.Errorf("unknown chrome schema %q (want %q)", probe.OtherData.Schema, ChromeSchema)
	case probe.Schema != "":
		return FileUnknown, fmt.Errorf("unknown schema %q (want %q)", probe.Schema, SummarySchema)
	}
	return FileUnknown, fmt.Errorf("no trace schema tag (expected otherData.schema=%q or schema=%q)", ChromeSchema, SummarySchema)
}

func validateChrome(data []byte) error {
	var doc ChromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	// Per-track span nesting: every E must close the innermost open B of
	// its name, timestamps must be non-negative and non-decreasing.
	stacks := map[int][]string{}
	lastTs := -1.0
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("chrome trace: event %d has no name", i)
		}
		if e.Ts < 0 {
			return fmt.Errorf("chrome trace: event %d (%s) has negative ts", i, e.Name)
		}
		if e.Ph != "M" {
			if e.Ts < lastTs {
				return fmt.Errorf("chrome trace: event %d (%s) goes back in time (%.3f < %.3f)", i, e.Name, e.Ts, lastTs)
			}
			lastTs = e.Ts
		}
		switch e.Ph {
		case "B":
			stacks[e.Tid] = append(stacks[e.Tid], e.Name)
		case "E":
			st := stacks[e.Tid]
			if len(st) == 0 {
				return fmt.Errorf("chrome trace: event %d closes %q on rank %d with no open span", i, e.Name, e.Tid)
			}
			if top := st[len(st)-1]; top != e.Name {
				return fmt.Errorf("chrome trace: event %d closes %q on rank %d but %q is open", i, e.Name, e.Tid, top)
			}
			stacks[e.Tid] = st[:len(st)-1]
		case "i", "C", "M":
		default:
			return fmt.Errorf("chrome trace: event %d has unsupported phase %q", i, e.Ph)
		}
	}
	for tid, st := range stacks {
		if len(st) > 0 {
			return fmt.Errorf("chrome trace: rank %d ends with %d unclosed spans (innermost %q)", tid, len(st), st[len(st)-1])
		}
	}
	return nil
}

func validateSummary(data []byte) error {
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	if s.Ranks < 0 {
		return fmt.Errorf("summary: negative rank count %d", s.Ranks)
	}
	for _, p := range s.Phases {
		if p.Name == "" {
			return fmt.Errorf("summary: phase with empty name")
		}
		if p.Count < 0 || p.TotalSec < 0 || p.MaxRankSec < 0 || p.AvgRankSec < 0 {
			return fmt.Errorf("summary: phase %q has negative stats", p.Name)
		}
		if p.MaxRankSec > p.TotalSec*(1+1e-9) {
			return fmt.Errorf("summary: phase %q max_rank_sec %.9f exceeds total_sec %.9f", p.Name, p.MaxRankSec, p.TotalSec)
		}
	}
	for _, n := range s.Neighbors {
		if n.Rank < 0 || n.Rank >= s.Ranks || n.Peer < 0 || n.Peer >= s.Ranks {
			return fmt.Errorf("summary: neighbor pair %d->%d outside 0..%d", n.Rank, n.Peer, s.Ranks-1)
		}
		if n.Msgs < 0 || n.Bytes < 0 || n.OnNodeMsgs > n.Msgs {
			return fmt.Errorf("summary: neighbor pair %d->%d has inconsistent counts", n.Rank, n.Peer)
		}
		var hist uint64
		for _, v := range n.Hist {
			hist += v
		}
		if hist != uint64(n.Msgs) {
			return fmt.Errorf("summary: neighbor pair %d->%d histogram sums to %d, msgs is %d", n.Rank, n.Peer, hist, n.Msgs)
		}
	}
	for i, p := range s.Parma {
		if p.Imb < 0 {
			return fmt.Errorf("summary: parma point %d has negative imbalance", i)
		}
	}
	return nil
}
