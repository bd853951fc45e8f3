package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecorderRoundTrip(t *testing.T) {
	tr := New(2)
	r0 := tr.Rank(0)
	r0.Begin("exchange")
	r0.Send(1, 256, true)
	r0.End("exchange")
	r0.Point("migrate.stage", 3)
	r0.ParmaIter(2, 1, 1.25)
	r0.Fault("delay", 7)
	tr.Rank(1).Begin("barrier")
	tr.Rank(1).End("barrier")

	ev := r0.Snapshot()
	if len(ev) != 6 {
		t.Fatalf("rank 0 retained %d events, want 6", len(ev))
	}
	wantKinds := []Kind{KindBegin, KindSend, KindEnd, KindPoint, KindParmaIter, KindFault}
	for i, e := range ev {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
		if i > 0 && e.T < ev[i-1].T {
			t.Errorf("event %d timestamp %d precedes event %d (%d)", i, e.T, i-1, ev[i-1].T)
		}
	}
	if s := ev[1]; s.A != 1 || s.B != 256 || s.V != 1 {
		t.Errorf("send event = %+v, want peer 1, 256 bytes, on-node", s)
	}
	if p := ev[4]; p.A != 2 || p.B != 1 || p.V != 1.25 {
		t.Errorf("parma event = %+v, want dim 2, iter 1, imb 1.25", p)
	}
	if d := r0.Dropped(); d != 0 {
		t.Errorf("Dropped() = %d, want 0", d)
	}
}

func TestRingWrapKeepsRecent(t *testing.T) {
	const extra = 6
	tr := New(1)
	r := tr.Rank(0)
	for i := 0; i < RingSize+extra; i++ {
		r.Point("tick", int64(i))
	}
	ev := r.Snapshot()
	if len(ev) != RingSize {
		t.Fatalf("retained %d events, want ring size %d", len(ev), RingSize)
	}
	for i, e := range ev {
		if want := int64(extra + i); e.A != want {
			t.Fatalf("retained event %d is tick %d, want %d (oldest must be dropped)", i, e.A, want)
		}
	}
	if d := r.Dropped(); d != extra {
		t.Errorf("Dropped() = %d, want %d", d, extra)
	}
	if tail := r.Tail(2); len(tail) != 2 || tail[1].A != RingSize+extra-1 {
		t.Errorf("Tail(2) = %v, want the last two ticks", tail)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.Ranks() != 0 {
		t.Error("nil Trace.Ranks() != 0")
	}
	r := tr.Rank(0)
	if r != nil {
		t.Fatal("nil Trace.Rank(0) should be nil")
	}
	// Every emit and read must be a no-op, not a crash.
	r.Begin("x")
	r.End("x")
	r.Point("x", 1)
	r.Send(0, 0, false)
	r.ParmaIter(0, 0, 0)
	r.Fault("x", 1)
	if r.Snapshot() != nil || r.Tail(4) != nil || r.Dropped() != 0 {
		t.Error("nil Recorder reads should be empty")
	}
	if tr.TailStrings(4) != nil {
		t.Error("nil Trace.TailStrings should be nil")
	}
}

func TestChromeExportValidates(t *testing.T) {
	tr := New(2)
	for rank := 0; rank < 2; rank++ {
		r := tr.Rank(rank)
		r.Begin("parma.iter")
		r.Begin("exchange")
		r.Send(1-rank, 128, rank == 0)
		r.End("exchange")
		r.ParmaIter(2, 0, 1.5)
		r.End("parma.iter")
	}
	// An unclosed span (run died mid-op) must get a synthesized End.
	tr.Rank(1).Begin("allreduce")

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	kind, err := ValidateFile(buf.Bytes())
	if err != nil {
		t.Fatalf("emitted chrome trace fails validation: %v\n%s", err, buf.String())
	}
	if kind != FileChrome {
		t.Fatalf("ValidateFile kind = %v, want chrome", kind)
	}
	for _, want := range []string{`"thread_name"`, `"parma.imbalance"`, `"ph":"C"`, `"peer"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("chrome export missing %s", want)
		}
	}
}

func TestChromeOrphanEndSkipped(t *testing.T) {
	// A wrapped ring can retain an End whose Begin was overwritten; the
	// exporter must drop it rather than emit an unbalanced E record.
	tr := New(1)
	r := tr.Rank(0)
	r.Begin("lost")
	for i := 0; i < RingSize; i++ {
		r.Point("fill", int64(i))
	}
	r.End("lost")
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateFile(buf.Bytes()); err != nil {
		t.Fatalf("orphan-End trace fails validation: %v", err)
	}
	if strings.Contains(buf.String(), `"lost"`) {
		t.Error("orphan End for overwritten Begin should not be exported")
	}
}

func TestSummaryStats(t *testing.T) {
	tr := New(2)
	r0, r1 := tr.Rank(0), tr.Rank(1)
	r0.Begin("exchange")
	r0.Send(1, 100, true)
	r0.Send(1, 300, false)
	r0.End("exchange")
	r1.Begin("exchange")
	r1.Send(0, 8, true)
	r1.End("exchange")
	r0.ParmaIter(2, 0, 1.8)
	r0.ParmaIter(2, 1, 1.2)
	r1.ParmaIter(2, 0, 1.8) // only rank 0's series is reported

	s := Summarize(tr)
	if s.Schema != SummarySchema || s.Ranks != 2 {
		t.Fatalf("summary header = %q/%d", s.Schema, s.Ranks)
	}
	if len(s.Phases) != 1 || s.Phases[0].Name != "exchange" || s.Phases[0].Count != 2 {
		t.Fatalf("phases = %+v, want one exchange phase with count 2", s.Phases)
	}
	ph := s.Phases[0]
	if ph.MaxRankSec < ph.AvgRankSec || ph.Imbalance < 1 {
		t.Errorf("phase stats inconsistent: %+v", ph)
	}
	if len(s.Neighbors) != 2 {
		t.Fatalf("neighbors = %+v, want 2 pairs", s.Neighbors)
	}
	n01 := s.Neighbors[0]
	if n01.Rank != 0 || n01.Peer != 1 || n01.Msgs != 2 || n01.Bytes != 400 || n01.OnNodeMsgs != 1 {
		t.Errorf("pair 0->1 = %+v", n01)
	}
	var hist uint64
	for _, v := range n01.Hist {
		hist += v
	}
	if hist != 2 {
		t.Errorf("pair 0->1 histogram sums to %d, want 2", hist)
	}
	if len(s.Parma) != 2 || s.Parma[0].Imb != 1.8 || s.Parma[1].Iter != 1 {
		t.Errorf("parma series = %+v, want rank 0's two points", s.Parma)
	}

	var buf bytes.Buffer
	if err := WriteSummary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if kind, err := ValidateFile(buf.Bytes()); err != nil || kind != FileSummary {
		t.Fatalf("emitted summary fails validation: kind=%v err=%v", kind, err)
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "pumi",
		"no schema":     `{"x":1}`,
		"wrong schema":  `{"schema":"pumi-bench/json/1"}`,
		"wrong chrome":  `{"traceEvents":[],"otherData":{"schema":"nope/9"}}`,
		"bad nesting":   `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":0,"tid":0},{"name":"b","ph":"E","ts":2,"pid":0,"tid":0}],"otherData":{"schema":"` + ChromeSchema + `"}}`,
		"unclosed span": `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":0,"tid":0}],"otherData":{"schema":"` + ChromeSchema + `"}}`,
		"bad neighbor":  `{"schema":"` + SummarySchema + `","ranks":2,"neighbors":[{"rank":0,"peer":5,"msgs":1,"bytes":1,"hist":[1]}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateFile([]byte(data)); err == nil {
			t.Errorf("%s: ValidateFile accepted %q", name, data)
		}
	}
}

func TestCollectorMergesRuns(t *testing.T) {
	var col Collector
	for run := 0; run < 3; run++ {
		tr := New(2)
		for rank := 0; rank < 2; rank++ {
			tr.Rank(rank).Begin("exchange")
			tr.Rank(rank).End("exchange")
		}
		col.Add(tr)
	}
	col.Add(nil) // failed run with no trace: ignored
	runs := col.Traces()
	if len(runs) != 3 {
		t.Fatalf("collector holds %d runs, want 3", len(runs))
	}
	s := Summarize(runs...)
	if s.Ranks != 2 || len(s.Phases) != 1 || s.Phases[0].Count != 6 {
		t.Fatalf("merged summary = ranks %d phases %+v, want 2 ranks, 6 exchange spans", s.Ranks, s.Phases)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, runs...); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateFile(buf.Bytes()); err != nil {
		t.Fatalf("merged chrome trace fails validation: %v", err)
	}
}

func TestTailStringsNameEvents(t *testing.T) {
	tr := New(2)
	tr.Rank(0).Begin("allreduce")
	tr.Rank(1).Send(0, 42, false)
	lines := tr.TailStrings(4)
	if len(lines) != 2 {
		t.Fatalf("TailStrings returned %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], "allreduce") {
		t.Errorf("rank 0 tail %q does not name the collective", lines[0])
	}
	if !strings.Contains(lines[1], "send->0") || !strings.Contains(lines[1], "42B") {
		t.Errorf("rank 1 tail %q does not describe the send", lines[1])
	}
}

// TestEmitZeroAlloc pins the recording hot path: once the ring exists,
// every emit — spans, sends, ParMA points, fault marks — is a ring
// store under a mutex and must not allocate. This is the property that
// lets tracing stay on during the pcu alloc-regression tests.
func TestEmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr := New(1)
	r := tr.Rank(0)
	if avg := testing.AllocsPerRun(200, func() {
		r.Begin("exchange")
		r.Send(0, 4096, true)
		r.Send(0, 4096, false)
		r.ParmaIter(2, 1, 1.05)
		r.Fault("delay", 3)
		r.End("exchange")
	}); avg != 0 {
		t.Errorf("emit cycle: %.1f allocs/op, want 0", avg)
	}
}
