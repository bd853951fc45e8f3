package pipeline

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Name: "cycle", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // clipped to the parent
		{Name: "a.inner", Parent: 1, Start: 15 * ms, End: 20 * ms},
	}
	got := SelfTimes(spans)
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 30 * ms, 5 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderBoundedAndChrome(t *testing.T) {
	r := NewRecorder(1, time.Now(), 2)
	root := r.Begin("cycle", 3, -1, false)
	child := r.Begin("stage", 3, root, true)
	if id := r.Begin("overflow", 3, root, false); id != -1 || r.Dropped() != 1 {
		t.Fatalf("third span got id %d, dropped %d", id, r.Dropped())
	}
	r.End(-1) // a dropped span ends harmlessly
	r.End(child)
	r.End(root)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*Recorder{r}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int
			Dur  float64
			Args map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "stage" || ev.Ph != "X" || ev.Tid != 1 || ev.Args["parent"] != float64(root) ||
		ev.Args["cycle"] != float64(3) || ev.Args["untimed"] != true {
		t.Errorf("event %+v", ev)
	}
}
