// pumi-part partitions a mesh with one of the global partitioners and
// writes the element-to-part assignment, reporting the balance and cut
// quality of the result.
//
// Usage:
//
//	pumi-part -mesh aaa.pumi -model vessel:10,1,0.6,1.2 -parts 64 -method hypergraph -o aaa.part
//	pumi-part -mesh box.pumi -model box:1,1,1 -parts 16 -method rcb
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/fastmath/pumi-go/internal/cmdutil"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/san"
	"github.com/fastmath/pumi-go/internal/zpart"
)

func main() {
	cmdutil.SetTool("pumi-part")
	meshFile := flag.String("mesh", "", "input mesh file (from pumi-gen)")
	modelFlag := flag.String("model", "", "model spec matching the mesh (optional; used for snapping metadata)")
	parts := flag.Int("parts", 4, "number of parts")
	method := flag.String("method", "rcb", "partitioner: rcb | rib | graph | hypergraph")
	out := flag.String("o", "", "output assignment file (optional)")
	timeout := flag.Duration("timeout", 0, "wall-clock limit; expiring aborts the run")
	sanitize := flag.Bool("san", false, "after partitioning, distribute the assignment across in-process ranks and verify the distributed mesh under pumi-san")
	tracePath := flag.String("trace", "", cmdutil.TraceUsage)
	listenAddr := flag.String("listen", "", cmdutil.ListenUsage)
	flag.Parse()
	defer cmdutil.WithTimeout(*timeout)()
	defer cmdutil.StartTrace(*tracePath)()
	defer cmdutil.StartListen(*listenAddr)()
	if *meshFile == "" {
		cmdutil.Usagef("-mesh is required")
	}
	if *parts < 1 {
		cmdutil.Usagef("-parts must be at least 1, got %d", *parts)
	}
	model := cmdutilModel(*modelFlag)
	m, err := meshio.LoadFile(*meshFile, model)
	if err != nil {
		cmdutil.Fail(err)
	}
	start := time.Now()
	var assign []int32
	switch *method {
	case "rcb":
		in, _ := zpart.Centroids(m)
		assign = zpart.RCB(in, *parts)
	case "rib":
		in, _ := zpart.Centroids(m)
		assign = zpart.RIB(in, *parts)
	case "graph":
		g, _ := zpart.DualGraph(m)
		assign = zpart.MLGraph(g, *parts)
	case "hypergraph":
		h, _ := zpart.ElementHypergraph(m, 0)
		assign = zpart.PHG(h, *parts)
	default:
		cmdutil.Usagef("unknown method %q", *method)
	}
	elapsed := time.Since(start)

	sizes := make([]int64, *parts)
	for _, p := range assign {
		sizes[p]++
	}
	var max, total int64
	for _, s := range sizes {
		total += s
		if s > max {
			max = s
		}
	}
	mean := float64(total) / float64(*parts)
	fmt.Printf("method %s: %d elements to %d parts in %v\n", *method, total, *parts, elapsed)
	fmt.Printf("element balance: mean %.1f, max %d, imbalance %.2f%%\n",
		mean, max, (float64(max)/mean-1)*100)
	g, _ := zpart.DualGraph(m)
	fmt.Printf("dual-graph edge cut: %.0f\n", g.EdgeCut(assign))
	h, _ := zpart.ElementHypergraph(m, 0)
	fmt.Printf("hypergraph connectivity-1 cut: %.0f\n", h.ConnectivityCut(assign))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			cmdutil.Fail(err)
		}
		defer f.Close()
		if err := meshio.WriteAssignment(f, assign); err != nil {
			cmdutil.Fail(err)
		}
		if err := f.Close(); err != nil {
			cmdutil.Fail(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *sanitize {
		// Last, because the migration consumes the serial mesh.
		if err := sanVerify(m, model, assign, *parts); err != nil {
			cmdutil.Fail(err)
		}
		runs, hash := pcu.SanSummary()
		fmt.Printf("pumi-san: distributed verify clean (%d run(s), op-sequence hash %#016x)\n", runs, hash)
	}
}

// sanVerify replays the element assignment as a real migration: the
// serial mesh is distributed over one in-process rank per part and the
// distributed-mesh verifier runs — all under pumi-san, so the migration protocol's collective schedule
// is cross-checked rank-against-rank and every mesh write is checked
// for ownership. Element index i is the i-th element of m.Elements(),
// the canonical order shared by all the partitioners' inputs.
func sanVerify(m *mesh.Mesh, model *gmi.Model, assign []int32, parts int) error {
	san.Enable()
	defer san.Disable()
	_, err := pcu.RunOpt(parts, pcu.Options{Sanitize: true}, func(ctx *pcu.Ctx) error {
		dm, err := partition.Distribute(ctx, model, m.Dim(), m, assign, 1)
		if err != nil {
			return err
		}
		return partition.Verify(dm)
	})
	return err
}

func cmdutilModel(spec string) *gmi.Model {
	if spec == "" {
		return nil
	}
	ms, err := cmdutil.ParseModelSpec(spec)
	if err != nil {
		cmdutil.Usagef("%v", err)
	}
	model, _ := ms.Build()
	return model
}
