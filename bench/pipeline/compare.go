package pipeline

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdict is benchcmp's judgement of one (metric, workload) pairing.
type Verdict string

const (
	Better      Verdict = "better"
	Worse       Verdict = "worse"
	WithinBound Verdict = "within-bound"
	// Unresolved: the run-to-run spread is wider than the bound and the
	// two sides' runs overlap, so neither "changed" nor "unchanged" can
	// be claimed.
	Unresolved Verdict = "unresolved"
	// Differs: a count that must repeat exactly for a seed did not
	// (agreement mode only).
	Differs Verdict = "differs"
	// Info: a per-layer metric, reported without a bound.
	Info Verdict = "info"
)

// Row is one line of benchcmp's report.
type Row struct {
	Metric, Workload, Unit string
	Old, New               float64 // medians over each side's runs
	Delta                  float64 // (new-old)/|old|, signed so that positive is worse
	Spread                 float64 // the wider side's inter-quartile range over its median
	Verdict                Verdict
}

// Judge applies the regression rule to one end-to-end pairing: old and
// new hold one value per run (or, for a single run, its per-cycle
// samples). The new median may be worse than the old by at most the
// bound; where the spread is wider than the bound the pairing is
// unresolved, unless every new run reads better (or worse) than every
// old one.
func Judge(def MetricDef, old, new []float64) Row {
	r := Row{Metric: def.Name, Unit: def.Unit, Old: Median(old), New: Median(new)}
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	if r.Old != 0 {
		r.Delta = sign * (r.New - r.Old) / math.Abs(r.Old)
	} else if r.New != 0 {
		r.Delta = sign * math.Inf(int(math.Copysign(1, r.New)))
	}
	r.Spread = max(relSpread(old), relSpread(new))
	// allBetter: every new value is better than every old one.
	allBetter := sign*(worstOf(new, sign)-bestOf(old, sign)) < 0
	allWorse := sign*(bestOf(new, sign)-worstOf(old, sign)) > 0
	noisy := r.Spread > def.Bound
	switch {
	case r.Delta > def.Bound:
		r.Verdict = Worse
		if noisy && !allWorse {
			r.Verdict = Unresolved
		}
	case r.Delta < -def.Bound:
		r.Verdict = Better
		if noisy && !allBetter {
			r.Verdict = Unresolved
		}
	default:
		r.Verdict = WithinBound
		if noisy && !allBetter {
			r.Verdict = Unresolved
		}
	}
	return r
}

// worstOf and bestOf return the worst and the best of vals, where sign
// is +1 when lower is better and -1 when higher is.
func worstOf(vals []float64, sign float64) float64 {
	m := math.Inf(-1)
	for _, v := range vals {
		m = max(m, sign*v)
	}
	return sign * m
}

func bestOf(vals []float64, sign float64) float64 {
	m := math.Inf(1)
	for _, v := range vals {
		m = min(m, sign*v)
	}
	return sign * m
}

// LoadRuns reads one side of a comparison: a results file, or a
// directory whose *.json files are each one run's results file.
func LoadRuns(path string) ([]*ResultsFile, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	paths := []string{path}
	if info.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	var runs []*ResultsFile
	for _, p := range paths {
		f, err := ReadResults(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(f.Workloads) > 0 {
			runs = append(runs, f)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return runs, nil
}

// gather collects, per workload and metric, one value per run. A side
// with a single run stands on that run's per-cycle samples where it
// kept them, so that a spread exists.
func gather(runs []*ResultsFile, layer bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, f := range runs {
		for _, w := range f.Workloads {
			group := w.EndToEnd
			if layer {
				group = w.PerLayer
			}
			if out[w.Workload] == nil {
				out[w.Workload] = map[string][]float64{}
			}
			for name, v := range group {
				if len(runs) == 1 && len(v.Samples) > 1 {
					out[w.Workload][name] = v.Samples
				} else {
					out[w.Workload][name] = append(out[w.Workload][name], v.Value)
				}
			}
		}
	}
	return out
}

// Compare judges every (metric, workload) pairing present on both
// sides. End-to-end metrics get the bound rule; per-layer metrics are
// listed for information. With agree set, the two sides are runs of the
// same code: nothing may be better or worse, and per-layer metrics
// marked exact must be identical.
func Compare(old, new []*ResultsFile, agree bool) []Row {
	var rows []Row
	for _, layer := range []bool{false, true} {
		defs := EndToEnd
		if layer {
			defs = PerLayer
		}
		o, n := gather(old, layer), gather(new, layer)
		for _, w := range Workloads {
			for _, def := range defs {
				ov, nv := o[w.Name][def.Name], n[w.Name][def.Name]
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				r := Judge(def, ov, nv)
				r.Workload = w.Name
				if layer {
					r.Verdict = Info
					if agree && Exact(def.Name) && r.Old != r.New {
						r.Verdict = Differs
					}
				}
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// Failed reports whether a verdict makes benchcmp exit non-zero.
func Failed(v Verdict, agree bool) bool {
	return v == Worse || v == Differs || agree && v == Better
}
