// pumi-info inspects a mesh file: entity counts, classification
// summary, element quality histogram, and — when an assignment is
// given — per-part balance and the partition model.
//
// Usage:
//
//	pumi-info -mesh box.pumi -model box:1,1,1
//	pumi-info -mesh aaa.pumi -model vessel:10,1,0.6,1.2 -assign aaa.part -ranks 8
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/fastmath/pumi-go/internal/cmdutil"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

func main() {
	cmdutil.SetTool("pumi-info")
	meshFile := flag.String("mesh", "", "input mesh file")
	modelFlag := flag.String("model", "", "model spec matching the mesh")
	assignFile := flag.String("assign", "", "optional element assignment to analyze")
	ranks := flag.Int("ranks", 4, "ranks used for the partition-model analysis")
	flag.Parse()
	if *meshFile == "" {
		cmdutil.Usagef("-mesh is required")
	}
	ms, model := cmdutil.Model(*modelFlag)
	m, err := meshio.LoadFile(*meshFile, model)
	if err != nil {
		cmdutil.Fail(err)
	}
	if err := m.CheckConsistency(); err != nil {
		cmdutil.Failf("mesh inconsistent: %v", err)
	}
	cmdutil.PrintMeshStats(os.Stdout, m)

	// Classification summary per model entity.
	fmt.Println("\nclassification (mesh entities per model entity):")
	type key struct {
		dim int8
		tag int32
	}
	counts := map[key][4]int{}
	for d := 0; d <= m.Dim(); d++ {
		for e := range m.Iter(d) {
			c := m.Classification(e)
			k := key{c.Dim, c.Tag}
			arr := counts[k]
			arr[d]++
			counts[k] = arr
		}
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dim != keys[j].dim {
			return keys[i].dim < keys[j].dim
		}
		return keys[i].tag < keys[j].tag
	})
	for _, k := range keys {
		arr := counts[k]
		fmt.Printf("  g%dd#%-4d  vtx %6d  edge %6d  face %6d  rgn %6d\n",
			k.dim, k.tag, arr[0], arr[1], arr[2], arr[3])
	}

	// Quality histogram (mean-ratio).
	fmt.Println("\nelement quality (mean ratio):")
	bins := make([]int, 10)
	worst := 1.0
	for el := range m.Elements() {
		q := m.MeanRatioQuality(el)
		if q < worst {
			worst = q
		}
		b := int(q * 10)
		if b > 9 {
			b = 9
		}
		if b < 0 {
			b = 0
		}
		bins[b]++
	}
	for i, c := range bins {
		fmt.Printf("  %.1f-%.1f | %-6d %s\n", float64(i)/10, float64(i+1)/10, c,
			strings.Repeat("#", min(c/5, 60)))
	}
	fmt.Printf("  worst quality: %.3f\n", worst)

	if *assignFile == "" {
		return
	}
	assign, nparts := cmdutil.LoadAssignment(*assignFile, *ranks)
	fmt.Printf("\npartition analysis (%d parts over %d ranks):\n", nparts, *ranks)
	err = pcu.Run(*ranks, func(ctx *pcu.Ctx) error {
		// Last use of m: the distribution consumes it.
		dm, err := partition.Distribute(ctx, model, ms.Dim(), m, assign, nparts / *ranks)
		if err != nil {
			return err
		}
		names := []string{"vtx", "edge", "face", "rgn"}
		for d := 0; d <= ms.Dim(); d++ {
			mean, imb := partition.EntityImbalance(dm, d)
			if ctx.Rank() == 0 {
				fmt.Printf("  %-5s mean %10.1f  imbalance %6.2f%%\n", names[d], mean, (imb-1)*100)
			}
		}
		tr := partition.GatherBoundaryTraffic(dm, 0)
		pm := partition.BuildPtnModel(dm)
		if ctx.Rank() == 0 {
			fmt.Printf("  shared vertices: %d\n", tr.SharedTotal)
			byDim := [4]int{}
			for _, pe := range pm.Ents {
				byDim[pe.Dim]++
			}
			fmt.Printf("  partition model: %d P0, %d P1, %d P2, %d P3\n",
				byDim[0], byDim[1], byDim[2], byDim[3])
		}
		return partition.Verify(dm)
	})
	if err != nil {
		cmdutil.Fail(err)
	}
}
