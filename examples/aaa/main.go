// AAA: the paper's abdominal-aorta-aneurysm workflow (Figs 11-12,
// Tables I-III) at example scale — generate the vessel surrogate,
// partition it with the hypergraph method, inspect the vertex imbalance
// spike, and repair it with ParMA multi-criteria improvement. Run with:
//
//	go run ./examples/aaa
package main

import (
	"fmt"
	"log"
	"time"

	pumi "github.com/fastmath/pumi-go"
)

func main() {
	// The AAA surrogate: a bent tube with an aneurysm bulge.
	model := pumi.Vessel(10, 1, 0.6, 1.2)
	const ranks, partsPerRank = 8, 4
	nparts := ranks * partsPerRank

	err := pumi.Run(ranks, func(ctx *pumi.Ctx) error {
		var serial *pumi.Mesh
		var assign []int32
		var phgTime time.Duration
		if ctx.Rank() == 0 {
			serial = pumi.VesselMesh(model, 24, 10)
			fmt.Printf("vessel mesh: %d tets, %d vertices\n", serial.Count(3), serial.Count(0))
			start := time.Now()
			h, _ := pumi.ElementHypergraph(serial, 0)
			assign = pumi.PHG(h, nparts)
			phgTime = time.Since(start)
			fmt.Printf("hypergraph partition (T0) to %d parts in %v\n", nparts, phgTime)
		}
		dm, err := pumi.Distribute(ctx, model.Model, 3, serial, assign, partsPerRank)
		if err != nil {
			return err
		}

		report := func(stage string) {
			names := []string{"Vtx", "Edge", "Face", "Rgn"}
			if ctx.Rank() == 0 {
				fmt.Printf("%s:\n", stage)
			}
			for d := 0; d <= 3; d++ {
				mean, imb := pumi.EntityImbalance(dm, d)
				if ctx.Rank() == 0 {
					fmt.Printf("  %-5s mean %8.1f   imbalance %6.2f%%\n",
						names[d], mean, (imb-1)*100)
				}
			}
		}
		report("after hypergraph partitioning (T0)")

		// Test T2 of the paper: balance vertices and edges without
		// harming regions beyond tolerance.
		pri, err := pumi.ParsePriority("Vtx=Edge>Rgn")
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := pumi.BalanceSafe(dm, pri, pumi.DefaultBalanceConfig())
		if err != nil {
			return err
		}
		parmaTime := time.Since(start)
		report("after ParMA Vtx=Edge>Rgn (T2)")
		if ctx.Rank() == 0 {
			fmt.Printf("ParMA time %v vs hypergraph %v (levels: %+v)\n",
				parmaTime, phgTime, res.Levels)
		}

		// The partition model after improvement.
		pm := pumi.BuildPtnModel(dm)
		if ctx.Rank() == 0 {
			byDim := [4]int{}
			for _, pe := range pm.Ents {
				byDim[pe.Dim]++
			}
			fmt.Printf("partition model: %d P0, %d P1, %d P2, %d P3 entities\n",
				byDim[0], byDim[1], byDim[2], byDim[3])
		}
		return pumi.Verify(dm)
	})
	if err != nil {
		log.Fatal(err)
	}
}
