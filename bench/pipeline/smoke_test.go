package pipeline

import (
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickPipeline runs every workload at smoke-test size, both passes,
// and asserts the benchmark's whole surface: every end-to-end and
// per-layer metric is present, finite and carries its unit, no operation
// failed, and the traced pass wrote a span file Perfetto can load.
func TestQuickPipeline(t *testing.T) {
	out := t.TempDir()
	for _, w := range Workloads {
		res, err := Run(Config{Workload: w.Name, Seed: 1, Quick: true, Trace: TraceBoth, OutDir: out})
		if errors.Is(err, ErrTooFewCPUs) {
			t.Skip(err)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct() {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.OpsFailed, res.Ops, res.Failures)
		}
		for _, group := range []struct {
			defs []MetricDef
			vals map[string]Value
		}{{EndToEnd, res.EndToEnd}, {PerLayer, res.PerLayer}} {
			if len(group.vals) != len(group.defs) {
				t.Errorf("%s: %d metrics reported, %d defined", w.Name, len(group.vals), len(group.defs))
			}
			for _, d := range group.defs {
				v, ok := group.vals[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.Name, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0:
					t.Errorf("%s: metric %s = %v", w.Name, d.Name, v.Value)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, d.Name, v.Unit, d.Unit)
				}
			}
		}
		for _, d := range EndToEnd {
			if res.EndToEnd[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
			}
		}
		if res.PerLayer["trace.dropped"].Value != 0 {
			t.Errorf("%s: the span recorder dropped %v spans", w.Name, res.PerLayer["trace.dropped"].Value)
		}
		if c := res.PerLayer["trace.stage_cover_ratio"].Value; c < 0.9 || c > 1.0001 {
			t.Errorf("%s: stage self times cover %.3f of the timed cycle", w.Name, c)
		}
		if w.Name == ParmaVessel32 {
			// The layers a workload is built to leave idle must read 0
			// there: that is what lets a later change predict "no
			// change" on it.
			for _, name := range []string{"adapt.parallel_s", "meshio.save_s", "meshio.load_s", "partition.migrate_ab_s", "partition.step_us"} {
				if v := res.PerLayer[name].Value; v != 0 {
					t.Errorf("%s = %v on %s, want 0", name, v, w.Name)
				}
			}
			if res.PerLayer["parma.iters"].Value == 0 || res.PerLayer["parma.balance_t1_s"].Value == 0 {
				t.Errorf("parma layer idle on its own workload: %+v", res.PerLayer["parma.iters"])
			}
		}
		raw, err := os.ReadFile(filepath.Join(out, w.Name+".spans.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct{ Name, Ph string }
		}
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: span file: %d events, %v", w.Name, len(doc.TraceEvents), err)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the metric tables")

// TestBenchmarkJSON keeps the benchmark's contract file in step with the
// tables the driver reports from.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type doc struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}
	want := doc{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, w := range Workloads {
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
		want.Workloads = append(want.Workloads, workload{w.Name, w.Why})
	}
	for _, d := range EndToEnd {
		bound := d.Bound
		want.EndToEnd = append(want.EndToEnd, metric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range PerLayer {
		want.PerLayer = append(want.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	wantRaw, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantRaw = append(wantRaw, '\n')
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, wantRaw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantRaw) {
		t.Errorf("%s is out of step with the metric tables; run go test ./pipeline -run TestBenchmarkJSON -update", path)
	}
}
