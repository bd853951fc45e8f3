// pumi-adapt adapts a mesh to a size field and writes the result: the
// serial entry point to the adaptation machinery (the distributed path
// is exercised by examples/m6adapt and pumi-bench -exp fig13).
//
// Size field specs:
//
//	uniform:H                 constant target edge length H
//	band:AXIS,CENTER,WIDTH,FINE,COARSE
//	                          FINE inside |axis-CENTER|<WIDTH, else COARSE
//
// Usage:
//
//	pumi-adapt -mesh box.pumi -model box:1,1,1 -size uniform:0.05 -o fine.pumi
//	pumi-adapt -mesh wing.pumi -model wing:4,2,0.5 -size band:x,2,0.3,0.05,0.5 -o shock.pumi
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/fastmath/pumi-go/internal/adapt"
	"github.com/fastmath/pumi-go/internal/cmdutil"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/vec"
)

func main() {
	cmdutil.SetTool("pumi-adapt")
	meshFile := flag.String("mesh", "", "input mesh file")
	modelFlag := flag.String("model", "", "model spec matching the mesh (for boundary snapping)")
	sizeFlag := flag.String("size", "", "size field spec: uniform:H | band:AXIS,CENTER,WIDTH,FINE,COARSE")
	out := flag.String("o", "adapted.pumi", "output mesh file")
	coarsen := flag.Bool("coarsen", true, "also collapse over-resolved edges")
	rounds := flag.Int("rounds", 15, "max refinement rounds")
	flag.Parse()
	if *meshFile == "" || *sizeFlag == "" {
		cmdutil.Usagef("-mesh and -size are required")
	}
	_, model := cmdutil.Model(*modelFlag)
	size, err := parseSize(*sizeFlag)
	if err != nil {
		cmdutil.Usagef("%v", err)
	}
	m, err := meshio.LoadFile(*meshFile, model)
	if err != nil {
		cmdutil.Fail(err)
	}
	before := m.Count(m.Dim())
	splits, collapses := adapt.Adapt(m, size, nil, *coarsen, *rounds)
	if err := m.CheckConsistency(); err != nil {
		cmdutil.Failf("adapted mesh inconsistent: %v", err)
	}
	fmt.Printf("adapted: %d -> %d elements (%d splits, %d collapses)\n",
		before, m.Count(m.Dim()), splits, collapses)
	if n := len(adapt.MarkLongEdges(m, size)); n > 0 {
		fmt.Printf("warning: %d edges still exceed the size field (raise -rounds)\n", n)
	}
	if err := meshio.SaveFile(*out, m); err != nil {
		cmdutil.Fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
	cmdutil.PrintMeshStats(os.Stdout, m)
}

func parseSize(s string) (adapt.SizeField, error) {
	kind, rest, _ := strings.Cut(s, ":")
	fields := strings.Split(rest, ",")
	switch strings.ToLower(kind) {
	case "uniform":
		if len(fields) != 1 {
			return nil, fmt.Errorf("uniform needs one parameter")
		}
		h, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || h <= 0 {
			return nil, fmt.Errorf("bad size %q", fields[0])
		}
		return adapt.Uniform(h), nil
	case "band":
		if len(fields) != 5 {
			return nil, fmt.Errorf("band needs AXIS,CENTER,WIDTH,FINE,COARSE")
		}
		axis := map[string]int{"x": 0, "y": 1, "z": 2}[strings.ToLower(fields[0])]
		var vals [4]float64
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad band parameter %q", fields[i+1])
			}
			vals[i] = v
		}
		center, width, fine, coarse := vals[0], vals[1], vals[2], vals[3]
		return func(p vec.V) float64 {
			if math.Abs(p.Comp(axis)-center) < width {
				return fine
			}
			return coarse
		}, nil
	}
	return nil, fmt.Errorf("unknown size field kind %q", kind)
}
