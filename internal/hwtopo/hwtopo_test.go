package hwtopo

import (
	"slices"
	"testing"
)

func TestClusterMapping(t *testing.T) {
	topo := Cluster(3, 4)
	if topo.Cores() != 12 {
		t.Fatalf("cores = %d", topo.Cores())
	}
	if topo.NodeOf(0) != 0 || topo.NodeOf(3) != 0 || topo.NodeOf(4) != 1 || topo.NodeOf(11) != 2 {
		t.Fatal("NodeOf wrong")
	}
	if !topo.SameNode(4, 7) || topo.SameNode(3, 4) {
		t.Fatal("SameNode wrong")
	}
}

func TestNodeRanks(t *testing.T) {
	topo := Cluster(2, 4)
	if got := topo.NodeRanks(0, 8); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("node 0 ranks = %v", got)
	}
	if got := topo.NodeRanks(1, 6); !slices.Equal(got, []int{4, 5}) {
		t.Fatalf("partial node ranks = %v", got)
	}
	if got := topo.NodeRanks(1, 3); got != nil {
		t.Fatalf("empty node ranks = %v", got)
	}
}

func TestDetectAndValidation(t *testing.T) {
	topo := Detect()
	if topo.Nodes != 1 || topo.CoresPerNode < 1 {
		t.Fatalf("Detect = %+v", topo)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid topology accepted")
		}
	}()
	Cluster(0, 4)
}
