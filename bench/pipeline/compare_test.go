package pipeline

import "testing"

func TestJudge(t *testing.T) {
	lower := MetricDef{Name: "pipeline_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := MetricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name     string
		def      MetricDef
		old, new []float64
		want     Verdict
	}{
		{"same", lower, []float64{1, 1.01, 0.99}, []float64{1.02, 1, 1.01}, WithinBound},
		{"slower beyond the bound", lower, []float64{1, 1.01, 0.99}, []float64{1.2, 1.21, 1.19}, Worse},
		{"faster beyond the bound", lower, []float64{1, 1.01, 0.99}, []float64{0.8, 0.81, 0.79}, Better},
		{"noisy and overlapping", lower, []float64{0.8, 1, 1.3}, []float64{0.9, 1.2, 1.4}, Unresolved},
		{"noisy, within the bound, overlapping", lower, []float64{0.8, 1, 1.3}, []float64{0.85, 1.02, 1.3}, Unresolved},
		{"noisy but every new run slower", lower, []float64{0.8, 1, 1.3}, []float64{1.5, 2, 2.6}, Worse},
		{"noisy but every new run faster", lower, []float64{0.8, 1, 1.3}, []float64{0.3, 0.5, 0.6}, Better},
		{"higher is better: a drop is worse", higher, []float64{100, 101}, []float64{80, 81}, Worse},
		{"higher is better: a rise is better", higher, []float64{100, 101}, []float64{120, 121}, Better},
		{"single values", lower, []float64{2}, []float64{2.1}, WithinBound},
	}
	for _, c := range cases {
		if got := Judge(c.def, c.old, c.new); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (delta %.3f spread %.3f), want %s", c.name, got.Verdict, got.Delta, got.Spread, c.want)
		}
	}
}

func TestCompareAgree(t *testing.T) {
	run := func(pipelineS, moved float64) []*ResultsFile {
		return []*ResultsFile{{Workloads: []*WorkloadResult{{
			Workload: RepartitionVessel16,
			EndToEnd: map[string]Value{"pipeline_s": {Value: pipelineS, Unit: "s"}},
			PerLayer: map[string]Value{"partition.migrate_elements_moved": {Value: moved, Unit: "count"}},
		}}}}
	}
	verdicts := func(rows []Row) map[string]Verdict {
		out := map[string]Verdict{}
		for _, r := range rows {
			out[r.Metric] = r.Verdict
		}
		return out
	}
	v := verdicts(Compare(run(1, 500), run(1.05, 501), true))
	if v["pipeline_s"] != WithinBound || v["partition.migrate_elements_moved"] != Differs {
		t.Errorf("agree verdicts %v", v)
	}
	v = verdicts(Compare(run(1, 500), run(0.5, 501), false))
	if v["pipeline_s"] != Better || v["partition.migrate_elements_moved"] != Info {
		t.Errorf("compare verdicts %v", v)
	}
	if !Failed(Better, true) || Failed(Better, false) || !Failed(Worse, false) || Failed(Unresolved, true) {
		t.Error("Failed")
	}
}
