// M6 adapt: the paper's shock-adaptation study (Figs 7/8/13) at example
// scale — adapt a wing surrogate to a shock-front size field without
// load balancing, show the element-imbalance histogram, then repair it
// with ParMA heavy part splitting plus diffusion. A solution field is
// carried through the adaptation. Run with:
//
//	go run ./examples/m6adapt
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	pumi "github.com/fastmath/pumi-go"
)

func main() {
	model := pumi.Wing(4, 2, 0.5)
	const ranks, parts = 8, 16

	err := pumi.Run(ranks, func(ctx *pumi.Ctx) error {
		var serial *pumi.Mesh
		if ctx.Rank() == 0 {
			serial = pumi.BoxMesh(model, 16, 8, 4)
		}
		dm, err := pumi.PartitionRCB(ctx, model.Model, 3, serial, parts/ranks)
		if err != nil {
			return err
		}

		// A "mach number" style field to carry through adaptation.
		for _, part := range dm.Parts {
			f, err := pumi.NewField(part.M, "mach", 1, pumi.Linear)
			if err != nil {
				return err
			}
			f.SetByFunc(func(p pumi.Vec) []float64 {
				return []float64{2 - math.Tanh((p.X+0.35*p.Y-2.35)*8)}
			})
		}

		// The shock front: a slanted band of fine resolution.
		size := func(p pumi.Vec) float64 {
			d := math.Abs((p.X + 0.35*p.Y) - 2.35)
			if d < 0.25 {
				return 0.07
			}
			return 0.6
		}
		before := pumi.GlobalCount(dm, 3)
		opts := pumi.DefaultAdaptOptions()
		opts.Transfer = pumi.NewFieldTransfer("mach")
		st := pumi.AdaptParallel(dm, size, opts)
		after := pumi.GlobalCount(dm, 3)
		if ctx.Rank() == 0 {
			fmt.Printf("adapted %d -> %d elements in %d rounds (%d splits, %d collapses, %d localized)\n",
				before, after, st.Rounds, st.Splits, st.Collapses, st.Localized)
		}

		// Fig 13: the histogram of element imbalance with no load
		// balancing applied prior to (or during) adaptation.
		counts := pumi.GatherCounts(dm, 3)
		if ctx.Rank() == 0 {
			mean := 0.0
			for _, c := range counts {
				mean += float64(c)
			}
			mean /= float64(len(counts))
			fmt.Println("element imbalance per part (count/average):")
			for p, c := range counts {
				r := float64(c) / mean
				fmt.Printf("  part %2d: %6d  %5.2f %s\n", p, c, r,
					strings.Repeat("#", int(r*10)))
			}
		}
		_, imb := pumi.EntityImbalance(dm, 3)
		if ctx.Rank() == 0 {
			fmt.Printf("peak imbalance %.2f\n", imb)
		}

		// Repair: heavy part splitting, then diffusion (paper §III-B).
		cfg := pumi.DefaultBalanceConfig()
		sres := pumi.HeavyPartSplit(dm, cfg)
		pri, _ := pumi.ParsePriority("Rgn")
		if _, err := pumi.BalanceSafe(dm, pri, cfg); err != nil {
			return err
		}
		_, fixed := pumi.EntityImbalance(dm, 3)
		if ctx.Rank() == 0 {
			fmt.Printf("after heavy part splitting (%d merges, %d pieces) + diffusion: %.2f\n",
				sres.Merges, sres.SplitPieces, fixed)
		}

		// The transferred field is still exact for the smooth profile
		// away from truncation error: spot check its range.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, part := range dm.Parts {
			f := pumi.FindField(part.M, "mach", pumi.Linear)
			for v := range part.M.Iter(0) {
				if x, ok := f.Get(v); ok {
					lo = math.Min(lo, x[0])
					hi = math.Max(hi, x[0])
				}
			}
		}
		if ctx.Rank() == 0 {
			fmt.Printf("transferred field range: [%.3f, %.3f]\n", lo, hi)
		}
		return pumi.CheckDistributed(dm)
	})
	if err != nil {
		log.Fatal(err)
	}
}
