// pumi-trace explores flight-recorder output: the Chrome trace-event
// timelines and metrics summaries written by pumi-bench -trace and
// pumi-part -trace (and by trace.WriteChrome / WriteSummary directly).
//
//	pumi-trace out.json                      # dump the timeline
//	pumi-trace -rank 3 out.json              # one rank's track
//	pumi-trace -phase migrate out.json       # phases matching a substring
//	pumi-trace out.summary.json              # render the metrics summary
//	pumi-trace before.json after.json        # diff per-phase durations
//	pumi-trace -validate out.json out.summary.json
//	pumi-trace -critical out.json              # per-phase straggler blame table
//
// Every reader accepts gzip-compressed recordings (.json.gz)
// transparently.
//
// Timelines render interactively at https://ui.perfetto.dev; this tool
// is the terminal-side view of the same files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/fastmath/pumi-go/internal/cmdutil"
	"github.com/fastmath/pumi-go/internal/trace"
)

func main() {
	cmdutil.SetTool("pumi-trace")
	rank := flag.Int("rank", -1, "show only this rank's track (-1 for all)")
	phase := flag.String("phase", "", "show only events whose name contains this substring")
	validate := flag.Bool("validate", false, "validate each file against its schema and exit; nonzero status on the first invalid file")
	critical := flag.Bool("critical", false, "print the critical-path blame table: each phase's arrival skew attributed to its last-arriving rank and the span that delayed it")
	flag.Parse()
	args := flag.Args()

	if *critical {
		if len(args) != 1 {
			cmdutil.Usagef("-critical needs exactly one timeline file; got %d", len(args))
		}
		criticalPath(args[0])
		return
	}

	if *validate {
		if len(args) == 0 {
			cmdutil.Usagef("-validate needs at least one file")
		}
		for _, path := range args {
			kind, err := validateFile(path)
			if err != nil {
				cmdutil.Fail(fmt.Errorf("%s: %w", path, err))
			}
			fmt.Printf("%s: valid %s\n", path, kind)
		}
		return
	}

	switch len(args) {
	case 1:
		dump(args[0], *rank, *phase)
	case 2:
		diff(args[0], args[1], *phase)
	default:
		cmdutil.Usagef("need one file (dump) or two files (diff); got %d", len(args))
	}
}

// readTraceFile loads a recording, transparently decompressing
// gzip-compressed timelines (.json.gz) so every reader below works on
// plain bytes.
func readTraceFile(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		cmdutil.Fail(err)
	}
	plain, err := trace.MaybeGunzip(data)
	if err != nil {
		cmdutil.Fail(fmt.Errorf("%s: %w", path, err))
	}
	return plain
}

func validateFile(path string) (trace.FileKind, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return trace.FileUnknown, err
	}
	return trace.ValidateFile(data)
}

// criticalPath renders the blame table of one timeline: per phase, the
// arrival skew between first and last rank, which rank arrived last and
// what that rank was doing instead.
func criticalPath(path string) {
	rep, err := trace.CriticalPathChrome(readTraceFile(path))
	if err != nil {
		cmdutil.Fail(fmt.Errorf("%s: %w", path, err))
	}
	rep.Format(os.Stdout)
}

// load validates a recording and reports which document it holds.
func load(path string) ([]byte, trace.FileKind) {
	data := readTraceFile(path)
	kind, err := trace.ValidateFile(data)
	if err != nil {
		cmdutil.Fail(fmt.Errorf("%s: %w", path, err))
	}
	return data, kind
}

// decode unmarshals a validated recording into v.
func decode(path string, data []byte, v any) {
	if err := json.Unmarshal(data, v); err != nil {
		cmdutil.Fail(fmt.Errorf("%s: %w", path, err))
	}
}

func dump(path string, rank int, phase string) {
	data, kind := load(path)
	if kind == trace.FileSummary {
		var s trace.Summary
		decode(path, data, &s)
		dumpSummary(&s, rank, phase)
		return
	}
	var doc trace.ChromeDoc
	decode(path, data, &doc)
	dumpChrome(&doc, rank, phase)
}

func dumpChrome(doc *trace.ChromeDoc, rank int, phase string) {
	// Per-rank span stacks so Ends print their duration and nesting
	// renders as indentation. The writer sorted records by timestamp and
	// validation proved the B/E nesting, so a linear pass suffices.
	type open struct {
		name string
		ts   float64
	}
	stacks := map[int][]open{}
	show := func(tid int, name string) bool {
		return (rank < 0 || tid == rank) && (phase == "" || strings.Contains(name, phase))
	}
	for _, e := range doc.TraceEvents {
		st := stacks[e.Tid]
		switch e.Ph {
		case "M":
			continue
		case "B":
			if show(e.Tid, e.Name) {
				fmt.Printf("rank %-3d %12.3fus %s%s{\n", e.Tid, e.Ts, indent(len(st)), e.Name)
			}
			stacks[e.Tid] = append(st, open{name: e.Name, ts: e.Ts})
		case "E":
			d := 0.0
			depth := len(st)
			if depth > 0 {
				depth--
				d = e.Ts - st[depth].ts
				stacks[e.Tid] = st[:depth]
			}
			if show(e.Tid, e.Name) {
				fmt.Printf("rank %-3d %12.3fus %s}%s (%.3fus)\n", e.Tid, e.Ts, indent(depth), e.Name, d)
			}
		default: // instants and counters
			if show(e.Tid, e.Name) {
				fmt.Printf("rank %-3d %12.3fus %s%s %s\n", e.Tid, e.Ts, indent(len(st)), e.Name, renderArgs(e.Args))
			}
		}
	}
	for k, v := range doc.OtherData {
		if strings.HasPrefix(k, "dropped_") {
			fmt.Printf("# %s = %s event(s) lost to ring wrap\n", k, v)
		}
	}
}

func indent(depth int) string { return strings.Repeat("  ", depth) }

// renderArgs renders an instant's args deterministically (sorted keys).
func renderArgs(args map[string]any) string {
	if len(args) == 0 {
		return ""
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, args[k]))
	}
	return strings.Join(parts, " ")
}

func dumpSummary(s *trace.Summary, rank int, phase string) {
	fmt.Printf("%s: %d rank(s), %d event(s), %d dropped\n", s.Schema, s.Ranks, s.Events, s.Dropped)
	if len(s.Phases) > 0 {
		fmt.Printf("\n%-28s %8s %12s %12s %12s %6s\n", "phase", "count", "total_s", "max_rank_s", "avg_rank_s", "imb")
		for _, p := range s.Phases {
			if phase != "" && !strings.Contains(p.Name, phase) {
				continue
			}
			fmt.Printf("%-28s %8d %12.6f %12.6f %12.6f %6.2f\n",
				p.Name, p.Count, p.TotalSec, p.MaxRankSec, p.AvgRankSec, p.Imbalance)
		}
	}
	if len(s.Neighbors) > 0 {
		fmt.Printf("\n%-6s %-6s %10s %12s %10s  %s\n", "rank", "peer", "msgs", "bytes", "on_node", "size histogram (2^i buckets)")
		for _, n := range s.Neighbors {
			if rank >= 0 && n.Rank != rank {
				continue
			}
			fmt.Printf("%-6d %-6d %10d %12d %10d  %v\n", n.Rank, n.Peer, n.Msgs, n.Bytes, n.OnNodeMsgs, n.Hist)
		}
	}
	if len(s.Parma) > 0 {
		fmt.Printf("\nparma imbalance trajectory:\n")
		for _, p := range s.Parma {
			fmt.Printf("  dim %d iter %2d  imb %.4f\n", p.Dim, p.Iter, p.Imb)
		}
	}
}

// phases reduces either file kind to its per-phase table by name: a
// summary carries it, a timeline is matched by trace.ChromePhases.
func phases(path string) map[string]trace.PhaseStat {
	data, kind := load(path)
	var list []trace.PhaseStat
	if kind == trace.FileSummary {
		var s trace.Summary
		decode(path, data, &s)
		list = s.Phases
	} else {
		var err error
		if list, err = trace.ChromePhases(data); err != nil {
			cmdutil.Fail(fmt.Errorf("%s: %w", path, err))
		}
	}
	byName := make(map[string]trace.PhaseStat, len(list))
	for _, p := range list {
		byName[p.Name] = p
	}
	return byName
}

// diff compares per-phase durations of two recordings — before/after a
// change, or two configurations of the same run.
func diff(pathA, pathB, phase string) {
	a, b := phases(pathA), phases(pathB)
	names := map[string]bool{}
	for n := range a {
		names[n] = true
	}
	for n := range b {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		if phase == "" || strings.Contains(n, phase) {
			sorted = append(sorted, n)
		}
	}
	sort.Strings(sorted)
	fmt.Printf("%-28s %12s %12s %10s\n", "phase", "a_total_s", "b_total_s", "delta")
	for _, n := range sorted {
		ta, okA := a[n]
		tb, okB := b[n]
		switch {
		case !okA:
			fmt.Printf("%-28s %12s %12.6f %10s\n", n, "-", tb.TotalSec, "added")
		case !okB:
			fmt.Printf("%-28s %12.6f %12s %10s\n", n, ta.TotalSec, "-", "removed")
		case ta.TotalSec > 0:
			fmt.Printf("%-28s %12.6f %12.6f %+9.1f%%\n", n, ta.TotalSec, tb.TotalSec, (tb.TotalSec/ta.TotalSec-1)*100)
		default:
			fmt.Printf("%-28s %12.6f %12.6f %10s\n", n, ta.TotalSec, tb.TotalSec, "n/a")
		}
	}
}
