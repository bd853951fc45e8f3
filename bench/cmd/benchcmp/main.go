// Command benchcmp compares two sets of pumi-pipeline results, one row
// per (metric, workload) pairing, and exits non-zero when any end-to-end
// metric is worse than its bound allows. Each side is a results file or
// a directory of them, one file per run.
//
//	benchcmp OLD NEW          regression check of NEW against OLD
//	benchcmp -agree RUN1 RUN2 two sets of runs of the same code must agree
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"github.com/fastmath/pumi-go/bench/pipeline"
	"github.com/fastmath/pumi-go/internal/cmdutil"
)

func main() {
	cmdutil.SetTool("benchcmp")
	agree := flag.Bool("agree", false, "the two sides are runs of the same code: fail on any verdict but within-bound, and on any exact count that differs")
	layers := flag.Bool("layers", false, "also list the per-layer metrics")
	flag.Parse()
	if flag.NArg() != 2 {
		cmdutil.Usagef("usage: benchcmp [-agree] [-layers] OLD NEW")
	}
	old, err := pipeline.LoadRuns(flag.Arg(0))
	if err != nil {
		cmdutil.Fail(err)
	}
	new, err := pipeline.LoadRuns(flag.Arg(1))
	if err != nil {
		cmdutil.Fail(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\told\tnew\tunit\tworse by\tspread\tverdict")
	failed := 0
	for _, r := range pipeline.Compare(old, new, *agree) {
		if pipeline.Failed(r.Verdict, *agree) {
			failed++
		} else if r.Verdict == pipeline.Info && !*layers {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.2f%%\t%s\n",
			r.Metric, r.Workload, r.Old, r.New, r.Unit, 100*r.Delta, 100*r.Spread, r.Verdict)
	}
	if err := tw.Flush(); err != nil {
		cmdutil.Fail(err)
	}
	if failed > 0 {
		fmt.Printf("%d pairing(s) failed\n", failed)
		os.Exit(cmdutil.ExitRuntime)
	}
}
