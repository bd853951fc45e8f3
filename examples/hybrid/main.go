// Hybrid: two-level architecture-aware mesh partitioning (paper §II-D,
// Figs 5/6) — partition first to nodes, then to the cores within each
// node, and observe that part boundaries split into on-node (shared
// memory) and off-node (network) classes. On-node boundaries can live
// implicitly in shared memory; only off-node boundaries cost explicit
// duplication and network traffic, so the two-level layout pushes
// sharing on-node. Run with:
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"log"

	pumi "github.com/fastmath/pumi-go"
)

const (
	nodes = 4
	cores = 4
)

// twoLevel assigns elements node-first (RCB across nodes), then
// core-level (local RIB within each node's chunk), so part ids land
// node-major like the rank layout. The node-level cuts match the first
// two levels of the one-level RCB, so the off-node boundary cannot
// exceed the one-level layout's inter-node sharing.
func twoLevel(serial *pumi.Mesh) []int32 {
	in, _ := pumi.Centroids(serial)
	nodeOf := pumi.RCB(in, nodes)
	assign := make([]int32, len(nodeOf))
	for nd := 0; nd < nodes; nd++ {
		var idx []int
		for i, a := range nodeOf {
			if int(a) == nd {
				idx = append(idx, i)
			}
		}
		var local pumi.GeomInput
		for _, i := range idx {
			local.Pts = append(local.Pts, in.Pts[i])
		}
		coreOf := pumi.RIB(local, cores)
		for j, i := range idx {
			assign[i] = int32(nd*cores + int(coreOf[j]))
		}
	}
	return assign
}

// oblivious computes the same RCB parts but places them on cores
// round-robin across nodes, the way an architecture-unaware system
// might schedule them: geometric neighbors land on different nodes.
func oblivious(serial *pumi.Mesh) []int32 {
	in, _ := pumi.Centroids(serial)
	assign := pumi.RCB(in, nodes*cores)
	for i, p := range assign {
		assign[i] = (p%nodes)*cores + p/nodes
	}
	return assign
}

// aligned keeps RCB's natural nesting: consecutive part ids share
// nodes, which is exactly what its recursive bisection produces.
func aligned(serial *pumi.Mesh) []int32 {
	in, _ := pumi.Centroids(serial)
	return pumi.RCB(in, nodes*cores)
}

func run(name string, planner func(*pumi.Mesh) []int32) {
	topo := pumi.Cluster(nodes, cores)
	model := pumi.Box(2, 2, 1)
	_, err := pumi.RunOn(nodes*cores, topo, func(ctx *pumi.Ctx) error {
		var serial *pumi.Mesh
		var assign []int32
		if ctx.Rank() == 0 {
			serial = pumi.BoxMesh(model, 16, 16, 8)
			assign = planner(serial)
		}
		dm, err := pumi.Distribute(ctx, model.Model, 3, serial, assign, 1)
		if err != nil {
			return err
		}
		if err := pumi.CheckDistributed(dm); err != nil {
			return err
		}
		tr := pumi.GatherBoundaryTraffic(dm, 0)
		_, imb := pumi.EntityImbalance(dm, 3)
		if ctx.Rank() == 0 {
			offPct := float64(tr.SharedOffNode) / float64(tr.SharedTotal) * 100
			fmt.Printf("%-34s elem imb %5.2f%%  shared vtx %5d (off-node %5d = %4.1f%%)\n",
				name+":", (imb-1)*100, tr.SharedTotal, tr.SharedOffNode, offPct)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	fmt.Printf("machine: %d nodes x %d cores\n", nodes, cores)
	run("architecture-oblivious placement", oblivious)
	run("node-aligned one-level RCB", aligned)
	run("two-level (nodes, then cores)", twoLevel)
}
