// pumi-bench regenerates the paper's evaluation: every table and figure
// has an experiment id, and -exp selects which to run (or "all"). Scale
// flags let the experiments grow toward the paper's sizes on bigger
// machines; the defaults run in seconds and preserve the paper's
// qualitative shapes.
//
//	pumi-bench -exp all
//	pumi-bench -exp table2 -ns 80 -n 20 -parts 64 -ranks 16
//	pumi-bench -exp fig13 -parts 32
//	pumi-bench -chaos 1,2,3,4 -chaos-dir /tmp/ck
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/fastmath/pumi-go/internal/chaos"
	"github.com/fastmath/pumi-go/internal/cmdutil"
	"github.com/fastmath/pumi-go/internal/experiments"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/san"
)

func main() {
	cmdutil.SetTool("pumi-bench")
	exp := flag.String("exp", "all", "experiment: table1 | table2 | table3 | fig12 | fig13 | hybrid | migrate | localsplit | all")
	ns := flag.Int("ns", 0, "vessel axial layers (table experiments)")
	n := flag.Int("n", 0, "vessel cross-section resolution")
	parts := flag.Int("parts", 0, "part count override")
	ranks := flag.Int("ranks", 0, "rank count override")
	timeout := flag.Duration("timeout", 0, "wall-clock limit; expiring aborts parallel runs with a structured error")
	chaosSeeds := flag.String("chaos", "", "comma-separated seeds: run the fault-injection soak instead of experiments")
	chaosDir := flag.String("chaos-dir", "", "checkpoint directory for -chaos (default a temp dir)")
	sanitize := flag.Bool("san", false, "run everything under pumi-san: enforce owner-only writes through live mesh handles, and print the op-sequence hash at exit")
	tracePath := flag.String("trace", "", cmdutil.TraceUsage)
	listenAddr := flag.String("listen", "", cmdutil.ListenUsage)
	flag.Parse()
	defer cmdutil.WithTimeout(*timeout)()
	defer cmdutil.StartTrace(*tracePath)()
	defer cmdutil.StartListen(*listenAddr)()
	if *sanitize {
		san.Enable()
	}

	if *chaosSeeds != "" {
		runChaos(*chaosSeeds, *chaosDir, *sanitize)
		sanReport(*sanitize)
		return
	}

	tcfg := experiments.DefaultTableConfig()
	if *ns > 0 {
		tcfg.NS = *ns
	}
	if *n > 0 {
		tcfg.N = *n
	}
	if *parts > 0 {
		tcfg.Parts = *parts
	}
	if *ranks > 0 {
		tcfg.Ranks = *ranks
	}
	fcfg := experiments.DefaultFig13Config()
	if *parts > 0 {
		fcfg.Parts = *parts
	}
	if *ranks > 0 {
		fcfg.Ranks = *ranks
	}

	needTable := false
	runs := map[string]bool{}
	switch *exp {
	case "all":
		for _, e := range []string{"table1", "table2", "table3", "fig12", "fig13", "hybrid", "migrate", "localsplit"} {
			runs[e] = true
		}
		needTable = true
	case "table1", "table2", "table3", "fig12":
		runs[*exp] = true
		needTable = *exp != "table1"
	case "fig13", "hybrid", "migrate", "localsplit":
		runs[*exp] = true
	default:
		cmdutil.Usagef("unknown experiment %q", *exp)
	}

	if runs["table1"] {
		fmt.Println("== Table I: tests and parameters for the partition improvement algorithms ==")
		fmt.Printf("%-5s %s\n", "Test", "Method")
		for _, t := range experiments.Tests {
			m := t.Method
			if t.Priority != "" {
				m += " " + t.Priority
			}
			fmt.Printf("%-5s %s\n", t.Name, m)
		}
		fmt.Println()
	}
	if needTable {
		res, err := experiments.RunTable(tcfg)
		if err != nil {
			cmdutil.Fail(err)
		}
		if runs["table2"] || runs["table3"] {
			fmt.Println("== Table II (entity imbalance) and Table III (time) ==")
			fmt.Print(experiments.FormatTable(res))
			fmt.Println()
		}
		if runs["fig12"] {
			fmt.Println("== Fig 12: normalized vertices and edges per part, before/after ParMA T2 ==")
			fmt.Println("part, vtx_before, vtx_after, edge_before, edge_after")
			for i := range res.Fig12.VtxBefore {
				fmt.Printf("%d, %.4f, %.4f, %.4f, %.4f\n", i,
					res.Fig12.VtxBefore[i], res.Fig12.VtxAfter[i],
					res.Fig12.EdgeBefore[i], res.Fig12.EdgeAfter[i])
			}
			fmt.Println()
		}
	}
	if runs["fig13"] {
		fmt.Println("== Fig 13: element imbalance histogram after adaptation without load balancing ==")
		res, err := experiments.RunFig13(fcfg)
		if err != nil {
			cmdutil.Fail(err)
		}
		fmt.Print(experiments.FormatFig13(res))
		fmt.Println()
	}
	if runs["hybrid"] {
		fmt.Println("== Hybrid two-level communication (paper §II-D, up to 32 workers/node) ==")
		points, err := experiments.RunHybrid(experiments.DefaultHybridConfig())
		if err != nil {
			cmdutil.Fail(err)
		}
		fmt.Print(experiments.FormatHybrid(points))
		fmt.Println()
	}
	if runs["migrate"] {
		fmt.Println("== Migration and ghosting scaling (paper §II distributed services) ==")
		points, err := experiments.RunMigrate(experiments.DefaultMigrateConfig())
		if err != nil {
			cmdutil.Fail(err)
		}
		fmt.Print(experiments.FormatMigrate(points))
		fmt.Println()
	}
	if runs["localsplit"] {
		fmt.Println("== Local splitting spike and ParMA recovery (paper §III-A, 16,384 -> 1.5M parts) ==")
		res, err := experiments.RunLocalSplit(experiments.DefaultLocalSplitConfig())
		if err != nil {
			cmdutil.Fail(err)
		}
		fmt.Print(experiments.FormatLocalSplit(res))
	}
	sanReport(*sanitize)
}

// sanReport prints the pumi-san ledger when -san was given: the number
// of clean sanitized runs this process completed and the cumulative
// op-sequence hash. Two identically-seeded invocations must print the
// same hash — a cheap determinism check for any experiment.
func sanReport(on bool) {
	if !on {
		return
	}
	runs, hash := pcu.SanSummary()
	fmt.Printf("pumi-san: %d sanitized run(s), op-sequence hash %#016x\n", runs, hash)
}

// runChaos drives one fault-injection soak per seed (chaos.Soak): a
// supervised balancing run under the seed's fault plan retries
// transient wire damage in place and shrinks over the survivors of a
// rank death; any other failure must be structured, followed by a
// checkpoint restart when one was committed. Any unclassifiable outcome
// fails the command.
func runChaos(seeds, dir string, sanitize bool) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "pumi-chaos-*")
		if err != nil {
			cmdutil.Fail(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	for _, field := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil {
			cmdutil.Usagef("bad -chaos seed %q: %v", field, err)
		}
		ckdir := fmt.Sprintf("%s/seed-%d", dir, seed)
		if err := os.MkdirAll(ckdir, 0o755); err != nil {
			cmdutil.Fail(err)
		}
		cfg := chaos.Config{
			Seed:         seed,
			Dir:          ckdir,
			StallTimeout: 30 * time.Second,
			Sanitize:     sanitize,
		}
		out, err := chaos.Soak(cfg)
		if err != nil {
			cmdutil.Fail(err)
		}
		fmt.Println(out)
	}
}
