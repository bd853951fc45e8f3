// parma-improve runs ParMA multi-criteria partition improvement on a
// partitioned mesh: it loads a mesh and an element assignment,
// distributes the mesh across an in-process parallel run, balances with
// the given priority list, and reports per-entity imbalance before and
// after (a Table II-style report for arbitrary inputs).
//
// Usage:
//
//	parma-improve -mesh aaa.pumi -model vessel:10,1,0.6,1.2 \
//	    -assign aaa.part -ranks 8 -priority "Vtx=Edge>Rgn" -tol 0.05
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/fastmath/pumi-go/internal/cmdutil"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

func main() {
	cmdutil.SetTool("parma-improve")
	meshFile := flag.String("mesh", "", "input mesh file")
	modelFlag := flag.String("model", "", "model spec matching the mesh")
	assignFile := flag.String("assign", "", "element assignment file (from pumi-part)")
	ranks := flag.Int("ranks", 4, "process count (parts are spread over ranks)")
	priority := flag.String("priority", "Rgn", "ParMA priority list, e.g. Vtx>Rgn or Vtx=Edge>Rgn")
	tol := flag.Float64("tol", 0.05, "imbalance tolerance (0.05 = 5%)")
	iters := flag.Int("iters", 60, "max diffusion iterations per entity type")
	split := flag.Bool("split", false, "run heavy part splitting before diffusion")
	flag.Parse()
	if *meshFile == "" || *assignFile == "" {
		cmdutil.Usagef("-mesh and -assign are required")
	}
	ms, err := cmdutil.ParseModelSpec(*modelFlag)
	if err != nil {
		cmdutil.Usagef("%v", err)
	}
	model, _ := ms.Build()

	af, err := os.Open(*assignFile)
	if err != nil {
		cmdutil.Fail(err)
	}
	assign, err := meshio.ReadAssignment(af)
	af.Close()
	if err != nil {
		cmdutil.Fail(err)
	}
	nparts := 0
	for _, p := range assign {
		if int(p)+1 > nparts {
			nparts = int(p) + 1
		}
	}
	if nparts%*ranks != 0 {
		cmdutil.Usagef("part count %d must be divisible by ranks %d", nparts, *ranks)
	}
	pri, err := parma.ParsePriority(*priority)
	if err != nil {
		cmdutil.Usagef("%v", err)
	}

	serial, err := meshio.LoadFile(*meshFile, model)
	if err != nil {
		cmdutil.Fail(err)
	}
	dim := ms.Dim()

	err = pcu.Run(*ranks, func(ctx *pcu.Ctx) error {
		dm, err := partition.Distribute(ctx, model, dim, serial, assign, nparts / *ranks)
		if err != nil {
			return err
		}

		report := func(stage string) {
			for d := 0; d <= dim; d++ {
				mean, imb := partition.EntityImbalance(dm, d)
				if ctx.Rank() == 0 {
					fmt.Printf("%-8s dim %d: mean %10.1f  imbalance %7.2f%%\n",
						stage, d, mean, (imb-1)*100)
				}
			}
		}
		report("before")
		start := time.Now()
		if *split {
			res := parma.HeavyPartSplit(dm, parma.Config{Tolerance: 1 + *tol, MaxIters: *iters})
			if ctx.Rank() == 0 {
				fmt.Printf("heavy part split: %d merges, %d pieces, imbalance %.2f%% -> %.2f%%\n",
					res.Merges, res.SplitPieces, (res.Before-1)*100, (res.After-1)*100)
			}
		}
		res, err := parma.BalanceSafe(dm, pri, parma.Config{Tolerance: 1 + *tol, MaxIters: *iters})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		report("after")
		if ctx.Rank() == 0 {
			fmt.Printf("ParMA %s: %v", pri, elapsed)
			for _, lv := range res.Levels {
				fmt.Printf("  [dim %d: %d iters, %.2f%% -> %.2f%%]",
					lv.Dim, lv.Iters, (lv.Before-1)*100, (lv.After-1)*100)
			}
			fmt.Println()
		}
		return partition.Verify(dm)
	})
	if err != nil {
		cmdutil.Fail(err)
	}
}
