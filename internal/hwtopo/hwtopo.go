// Package hwtopo describes the hardware topology a run is mapped onto:
// how many nodes the machine has and how many processing units (cores)
// each node offers. PUMI obtains this information from hwloc; here the
// topology is synthetic but serves the same purpose — it tells the
// parallel control layer which ranks share a node's memory so that
// architecture-aware partitioning and communication can distinguish
// on-node from off-node traffic.
package hwtopo

import (
	"fmt"
	"runtime"
)

// Topology is a two-level machine description: Nodes shared-memory nodes
// each exposing CoresPerNode independent processing units. Ranks are
// mapped onto cores in node-major order: rank r runs on node r/CoresPerNode,
// core r%CoresPerNode — the mapping the paper describes (each MPI process
// to the largest hardware entity whose memory is shared, each thread to
// the smallest entity capable of independent computation).
type Topology struct {
	Nodes        int
	CoresPerNode int
}

// Detect returns a topology for the host machine: a single shared-memory
// node exposing the machine's processing units. This mirrors running
// hwloc on a workstation.
func Detect() Topology {
	return Topology{Nodes: 1, CoresPerNode: runtime.NumCPU()}
}

// Cluster returns a synthetic multi-node topology, used to emulate a
// distributed-memory machine (e.g. a Blue Gene/Q rack) inside one process.
func Cluster(nodes, coresPerNode int) Topology {
	if nodes < 1 || coresPerNode < 1 {
		panic(fmt.Sprintf("hwtopo: invalid topology %d x %d", nodes, coresPerNode))
	}
	return Topology{Nodes: nodes, CoresPerNode: coresPerNode}
}

// Cores returns the total number of processing units.
func (t Topology) Cores() int { return t.Nodes * t.CoresPerNode }

// NodeOf returns the node hosting the given rank.
func (t Topology) NodeOf(rank int) int { return rank / t.CoresPerNode }

// SameNode reports whether two ranks share a node's memory.
func (t Topology) SameNode(a, b int) bool { return t.NodeOf(a) == t.NodeOf(b) }

// NodeRanks returns the ranks hosted on the given node, in rank order,
// assuming nranks total ranks are mapped onto the machine.
func (t Topology) NodeRanks(node, nranks int) []int {
	lo := node * t.CoresPerNode
	hi := lo + t.CoresPerNode
	if hi > nranks {
		hi = nranks
	}
	if lo >= hi {
		return nil
	}
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

func (t Topology) String() string {
	return fmt.Sprintf("%d node(s) x %d core(s)", t.Nodes, t.CoresPerNode)
}
