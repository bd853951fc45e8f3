// Command pumi-pipeline is the repository's benchmark driver: it runs
// the closed-loop pipeline workloads on 2 ranks, prints every metric by
// name with its unit, checks outputs, and writes a results file. See
// ../../README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/fastmath/pumi-go/bench/pipeline"
	"github.com/fastmath/pumi-go/internal/cmdutil"
)

func main() {
	cmdutil.SetTool("pumi-pipeline")
	workload := flag.String("workload", "", "workload to run (default: all four, in turn)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed cycles of each workload go on")
	trace := flag.Int("trace", pipeline.TraceBoth, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; -1: both")
	quick := flag.Bool("quick", false, "smoke-test sizes: one cycle of each workload on small meshes")
	out := flag.String("out", "out", "directory for the results file, span files and checkpoints")
	flag.Parse()
	if flag.NArg() > 0 {
		cmdutil.Usagef("unexpected argument %q", flag.Arg(0))
	}
	if *trace < pipeline.TraceBoth || *trace > pipeline.TraceOn {
		cmdutil.Usagef("-trace must be 0, 1 or -1")
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range pipeline.Workloads {
			names = append(names, w.Name)
		}
	}

	file := pipeline.ResultsFile{Stamp: pipeline.MachineStamp(*seed)}
	failed := false
	for _, name := range names {
		res, err := pipeline.Run(pipeline.Config{
			Workload: name, Seed: *seed, Seconds: *seconds, Quick: *quick, Trace: *trace, OutDir: *out,
		})
		if errors.Is(err, pipeline.ErrTooFewCPUs) {
			cmdutil.Usagef("%v", err)
		}
		if err != nil {
			cmdutil.Fail(err)
		}
		file.Workloads = append(file.Workloads, res)
		report(res)
		failed = failed || !res.Correct()
	}
	path := filepath.Join(*out, "results.json")
	if err := file.Write(path); err != nil {
		cmdutil.Fail(err)
	}
	fmt.Printf("results: %s\n", path)
	if *workload != "" && *trace != pipeline.TraceBoth {
		// The machine-readable line a driver reads: one workload, one
		// kind of metric.
		contractLine(file.Workloads[0])
	}
	if failed {
		os.Exit(cmdutil.ExitRuntime)
	}
}

// report prints every metric of one workload by name, with its unit.
func report(res *pipeline.WorkloadResult) {
	fmt.Printf("== %s  seed %d  cycles %d  ops %d  ops_failed %d\n", res.Workload, res.Seed, res.Cycles, res.Ops, res.OpsFailed)
	for _, f := range res.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
	for _, group := range []map[string]pipeline.Value{res.EndToEnd, res.Wall, res.PerLayer} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := group[n]
			line := fmt.Sprintf("   %-36s %14.6g %-6s", n, v.Value, v.Unit)
			if s := v.Summary; s != nil {
				line += fmt.Sprintf("  min %.6g  max %.6g  iqr %.6g  n %d", s.Min, s.Max, s.IQR, s.N)
			}
			fmt.Println(line)
		}
	}
}

func contractLine(res *pipeline.WorkloadResult) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, group := range []map[string]pipeline.Value{res.EndToEnd, res.PerLayer} {
		for n, v := range group {
			metrics[n] = metric{v.Value, v.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct(), res.Ops, res.OpsFailed, metrics})
	if err != nil {
		cmdutil.Fail(err)
	}
	fmt.Println(string(line))
}
