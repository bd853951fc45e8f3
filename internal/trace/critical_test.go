package trace

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"
)

// ev builds one event with a fixed timestamp (tests never go through
// emit, which would stamp wall-clock time).
func ev(t int64, k Kind, name string) Event { return Event{T: t, Kind: k, Name: name} }

func TestCriticalPathEvents(t *testing.T) {
	// Two exchange instances, rank 2 late in both, delayed by "compute".
	perRank := [][]Event{
		{ev(0, KindBegin, "compute"), ev(100, KindEnd, "compute"), ev(100, KindBegin, "x"), ev(300, KindEnd, "x"),
			ev(300, KindBegin, "x"), ev(500, KindEnd, "x")},
		{ev(0, KindBegin, "compute"), ev(120, KindEnd, "compute"), ev(120, KindBegin, "x"), ev(300, KindEnd, "x"),
			ev(310, KindBegin, "x"), ev(500, KindEnd, "x")},
		{ev(0, KindBegin, "compute"), ev(250, KindEnd, "compute"), ev(250, KindBegin, "x"), ev(300, KindEnd, "x"),
			ev(400, KindBegin, "x"), ev(500, KindEnd, "x")},
	}
	r := CriticalPathEvents(perRank)
	if r.Ranks != 3 {
		t.Fatalf("ranks = %d", r.Ranks)
	}
	if len(r.Phases) != 2 {
		t.Fatalf("phases = %d, want 2 (x and compute)", len(r.Phases))
	}
	x := r.Phases[0]
	if x.Name != "x" {
		t.Fatalf("costliest phase = %q, want x", x.Name)
	}
	if x.Instances != 2 {
		t.Fatalf("x instances = %d", x.Instances)
	}
	// Instance 0 skew 250-100=150, instance 1 skew 400-300=100.
	if x.TotalSkewNs != 250 || x.MaxSkewNs != 150 || x.MaxSkewRank != 2 {
		t.Fatalf("x skew total=%d max=%d rank=%d", x.TotalSkewNs, x.MaxSkewNs, x.MaxSkewRank)
	}
	if x.BlamedCount[2] != 2 {
		t.Fatalf("x blamed counts %v, want rank 2 twice", x.BlamedCount)
	}
	// Instance 0's straggler last closed "compute"; instance 1's last
	// closed the previous "x". Sorted count-desc then name-asc.
	want := []DelaySpan{{Name: "compute", Count: 1}, {Name: "x", Count: 1}}
	if len(x.DelayedBy) != 2 || x.DelayedBy[0] != want[0] || x.DelayedBy[1] != want[1] {
		t.Fatalf("x delayed-by %v, want %v", x.DelayedBy, want)
	}
}

func TestCriticalPathSingleRankPhasesIgnored(t *testing.T) {
	perRank := [][]Event{
		{ev(0, KindBegin, "solo"), ev(10, KindEnd, "solo")},
		{},
	}
	r := CriticalPathEvents(perRank)
	if len(r.Phases) != 0 {
		t.Fatalf("single-rank span produced blame: %+v", r.Phases)
	}
}

// The blame table must not depend on the order worlds were registered
// or shards merged: concatenating two sequential runs' per-rank streams
// in either order must yield byte-identical tables (the analyzer
// re-sorts each stream by timestamp), and repeated runs must render
// identically despite Go's randomized map iteration.
func TestCriticalPathDeterminism(t *testing.T) {
	// Run 1 occupies t=0..100, run 2 t=1000..1100; distinct phase mixes
	// so name discovery order differs between merge orders.
	run1 := func(rank int, late int64) []Event {
		return []Event{
			ev(0, KindBegin, "zz.exchange"), ev(40+late, KindEnd, "zz.exchange"),
			ev(40+late, KindBegin, "aa.reduce"), ev(90+late, KindEnd, "aa.reduce"),
		}
	}
	run2 := func(rank int, late int64) []Event {
		return []Event{
			ev(1000, KindBegin, "aa.reduce"), ev(1030+late, KindEnd, "aa.reduce"),
			ev(1030+late, KindBegin, "mm.migrate"), ev(1090+late, KindEnd, "mm.migrate"),
		}
	}
	lates := []int64{0, 7, 23, 3}
	build := func(firstRun, secondRun func(int, int64) []Event) [][]Event {
		perRank := make([][]Event, len(lates))
		for r, late := range lates {
			perRank[r] = append(append([]Event{}, firstRun(r, late)...), secondRun(r, late)...)
		}
		return perRank
	}
	var first string
	for i := 0; i < 50; i++ {
		var perRank [][]Event
		if i%2 == 0 {
			perRank = build(run1, run2)
		} else {
			perRank = build(run2, run1) // registration order swapped
		}
		var buf bytes.Buffer
		CriticalPathEvents(perRank).Format(&buf)
		if i == 0 {
			first = buf.String()
			continue
		}
		if buf.String() != first {
			t.Fatalf("iteration %d rendered differently:\n%s\nvs\n%s", i, buf.String(), first)
		}
	}
}

func TestCriticalPathChromeFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "critical_fixture.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateFile(data); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	r, err := CriticalPathChrome(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	golden, err := os.ReadFile(filepath.Join("testdata", "critical_fixture.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(golden) {
		t.Fatalf("blame table drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), golden)
	}

	// The gzipped fixture must yield the identical table (gzip-transparent
	// readers are the satellite contract).
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if kind, err := ValidateFile(gz.Bytes()); err != nil || kind != FileChrome {
		t.Fatalf("gzipped fixture: kind=%v err=%v", kind, err)
	}
	rz, err := CriticalPathChrome(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	rz.Format(&buf2)
	if buf2.String() != buf.String() {
		t.Fatal("gzipped fixture rendered a different table")
	}
}

func TestMaybeGunzip(t *testing.T) {
	plain := []byte(`{"k":1}`)
	out, err := MaybeGunzip(plain)
	if err != nil || !bytes.Equal(out, plain) {
		t.Fatalf("passthrough broken: %v %s", err, out)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(plain)
	zw.Close()
	out, err = MaybeGunzip(gz.Bytes())
	if err != nil || !bytes.Equal(out, plain) {
		t.Fatalf("gunzip broken: %v %s", err, out)
	}
	if _, err := MaybeGunzip([]byte{0x1f, 0x8b, 0x00}); err == nil {
		t.Fatal("truncated gzip accepted")
	}
}
