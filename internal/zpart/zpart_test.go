package zpart

import (
	"fmt"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/vec"
)

func testMesh(t *testing.T, n int) *mesh.Mesh {
	t.Helper()
	return meshgen.Box3D(gmi.Box(1, 1, 1), n, n, n)
}

func checkBalance(t *testing.T, name string, sizes []float64, tolFrac float64) {
	t.Helper()
	total, max := 0.0, 0.0
	for _, s := range sizes {
		total += s
		if s > max {
			max = s
		}
		if s == 0 {
			t.Fatalf("%s: empty part (sizes %v)", name, sizes)
		}
	}
	mean := total / float64(len(sizes))
	if max/mean > 1+tolFrac {
		t.Fatalf("%s: imbalance %.3f (sizes %v)", name, max/mean, sizes)
	}
}

func TestRCBBalanceAndDeterminism(t *testing.T) {
	m := testMesh(t, 6) // 1296 tets
	in, _ := Centroids(m)
	for _, k := range []int{2, 4, 7, 16} {
		part := RCB(in, k)
		sizes := make([]float64, k)
		for _, p := range part {
			if p < 0 || int(p) >= k {
				t.Fatalf("assignment out of range: %d", p)
			}
			sizes[p]++
		}
		checkBalance(t, "RCB", sizes, 0.05)
		again := RCB(in, k)
		for i := range part {
			if part[i] != again[i] {
				t.Fatal("RCB not deterministic")
			}
		}
	}
}

func TestRIBBalance(t *testing.T) {
	m := testMesh(t, 6)
	in, _ := Centroids(m)
	part := RIB(in, 8)
	sizes := make([]float64, 8)
	for _, p := range part {
		sizes[p]++
	}
	checkBalance(t, "RIB", sizes, 0.05)
}

func TestWeightedRCB(t *testing.T) {
	m := testMesh(t, 4)
	in, _ := Centroids(m)
	in.Wts = make([]float64, len(in.Pts))
	// Make low-x elements 3x heavier.
	for i, p := range in.Pts {
		if p.X < 0.5 {
			in.Wts[i] = 3
		} else {
			in.Wts[i] = 1
		}
	}
	part := RCB(in, 4)
	sizes := make([]float64, 4)
	for i, p := range part {
		sizes[p] += in.Wts[i]
	}
	checkBalance(t, "weighted RCB", sizes, 0.15)
}

func TestDualGraphStructure(t *testing.T) {
	m := testMesh(t, 2) // 48 tets
	g, els := DualGraph(m)
	if g.N() != 48 || len(els) != 48 {
		t.Fatalf("N = %d", g.N())
	}
	// Every tet has 1..4 face neighbors; interior tets have 4.
	for v := 0; v < g.N(); v++ {
		deg := int(g.XAdj[v+1] - g.XAdj[v])
		if deg < 1 || deg > 4 {
			t.Fatalf("tet with %d face neighbors", deg)
		}
	}
	// Symmetry: adjacency round trip.
	for v := int32(0); v < int32(g.N()); v++ {
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			u := g.Adj[j]
			found := false
			for k := g.XAdj[u]; k < g.XAdj[u+1]; k++ {
				if g.Adj[k] == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatal("asymmetric dual graph")
			}
		}
	}
}

func TestMLGraphPartition(t *testing.T) {
	m := testMesh(t, 6)
	g, _ := DualGraph(m)
	for _, k := range []int{2, 4, 6} {
		part := MLGraph(g, k)
		sizes := PartSizes(g, part, k)
		checkBalance(t, "MLGraph", sizes, 0.10)
		if cut := g.EdgeCut(part); cut <= 0 {
			t.Fatalf("k=%d: cut = %g", k, cut)
		}
	}
	// The multilevel method should beat a naive slab-by-index split.
	part := MLGraph(g, 4)
	naive := make([]int32, g.N())
	for i := range naive {
		naive[i] = int32(i * 4 / g.N())
	}
	if g.EdgeCut(part) > g.EdgeCut(naive) {
		t.Fatalf("MLGraph cut %g worse than naive %g", g.EdgeCut(part), g.EdgeCut(naive))
	}
}

func TestElementHypergraph(t *testing.T) {
	m := testMesh(t, 2)
	h, els := ElementHypergraph(m, 0)
	if h.NV() != 48 || len(els) != 48 {
		t.Fatalf("NV = %d", h.NV())
	}
	if h.NN() == 0 {
		t.Fatal("no nets")
	}
	// Every net has >= 2 pins; pin/net CSR views agree.
	pinTotal := 0
	for n := 0; n < h.NN(); n++ {
		sz := int(h.NX[n+1] - h.NX[n])
		if sz < 2 {
			t.Fatalf("net with %d pins", sz)
		}
		pinTotal += sz
	}
	netTotal := 0
	for v := 0; v < h.NV(); v++ {
		netTotal += int(h.VX[v+1] - h.VX[v])
	}
	if pinTotal != netTotal {
		t.Fatalf("CSR views disagree: %d vs %d", pinTotal, netTotal)
	}
}

func TestPHGPartition(t *testing.T) {
	m := testMesh(t, 5)
	h, _ := ElementHypergraph(m, 0)
	for _, k := range []int{2, 4} {
		part := PHG(h, k)
		sizes := make([]float64, k)
		for _, p := range part {
			sizes[p]++
		}
		checkBalance(t, "PHG", sizes, 0.10)
		if cut := h.ConnectivityCut(part); cut <= 0 {
			t.Fatal("no cut")
		}
	}
	// PHG should produce a much better connectivity cut than a random
	// striped assignment.
	part := PHG(h, 4)
	striped := make([]int32, h.NV())
	for i := range striped {
		striped[i] = int32(i % 4)
	}
	if h.ConnectivityCut(part) > 0.5*h.ConnectivityCut(striped) {
		t.Fatalf("PHG cut %g vs striped %g", h.ConnectivityCut(part), h.ConnectivityCut(striped))
	}
}

func TestCutMetricsAgreeOnTwoParts(t *testing.T) {
	// Sanity: on a 1D chain graph, one cut edge.
	g := &Graph{
		XAdj: []int32{0, 1, 3, 4},
		Adj:  []int32{1, 0, 2, 1},
		EWt:  []float64{1, 1, 1, 1},
		VWt:  []float64{1, 1, 1},
	}
	part := []int32{0, 0, 1}
	if got := g.EdgeCut(part); got != 1 {
		t.Fatalf("cut = %g", got)
	}
}

// TestRIBRotatedGeometry: RIB's inertial axis should adapt to a thin
// rotated slab where axis-aligned RCB cuts poorly.
func TestRIBRotatedGeometry(t *testing.T) {
	// Points along a rotated line y = x with small transverse jitter.
	var in GeomInput
	for i := 0; i < 512; i++ {
		s := float64(i) / 511 * 10
		j := float64(i%7-3) * 0.01
		in.Pts = append(in.Pts, vecV(s+j, s-j, 0))
	}
	part := RIB(in, 2)
	// The bisection must split along the diagonal: all of side 0's
	// projections onto (1,1) must be below side 1's (or vice versa).
	lo0, hi0 := 1e30, -1e30
	lo1, hi1 := 1e30, -1e30
	for i, p := range part {
		proj := in.Pts[i].X + in.Pts[i].Y
		if p == 0 {
			lo0, hi0 = minf(lo0, proj), maxf(hi0, proj)
		} else {
			lo1, hi1 = minf(lo1, proj), maxf(hi1, proj)
		}
	}
	if !(hi0 <= lo1 || hi1 <= lo0) {
		t.Fatalf("RIB did not cut along the inertial axis: [%g,%g] vs [%g,%g]", lo0, hi0, lo1, hi1)
	}
	sizes := [2]int{}
	for _, p := range part {
		sizes[p]++
	}
	if sizes[0] != 256 || sizes[1] != 256 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func vecV(x, y, z float64) vec.V { return vec.V{X: x, Y: y, Z: z} }

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TestCoarseningPreservesTotals: the multilevel coarsening of graphs
// and hypergraphs conserves vertex weight and keeps structures sane.
func TestCoarseningPreservesTotals(t *testing.T) {
	m := testMesh(t, 4)
	g, _ := DualGraph(m)
	cg, cmap := g.coarsen(newWorkspace(g.N(), 0))
	if cg.N() >= g.N() {
		t.Fatalf("no coarsening: %d -> %d", g.N(), cg.N())
	}
	if cg.TotalVWt() != g.TotalVWt() {
		t.Fatalf("weight lost: %g -> %g", g.TotalVWt(), cg.TotalVWt())
	}
	for v := 0; v < g.N(); v++ {
		if int(cmap[v]) >= cg.N() || cmap[v] < 0 {
			t.Fatal("cmap out of range")
		}
	}
	h, _ := ElementHypergraph(m, 0)
	ch, hmap := h.coarsen(newWorkspace(h.NV(), h.NN()))
	if ch.NV() >= h.NV() {
		t.Fatalf("no hypergraph coarsening: %d -> %d", h.NV(), ch.NV())
	}
	wt := 0.0
	for _, w := range ch.VWt {
		wt += w
	}
	if wt != float64(h.NV()) {
		t.Fatalf("hypergraph weight = %g", wt)
	}
	for v := 0; v < h.NV(); v++ {
		if int(hmap[v]) >= ch.NV() {
			t.Fatal("hmap out of range")
		}
	}
	// Coarse nets keep >= 2 pins.
	for n := 0; n < ch.NN(); n++ {
		if ch.NX[n+1]-ch.NX[n] < 2 {
			t.Fatal("singleton coarse net")
		}
	}
}

// TestPartCountGuard: a part count below one used to recurse until the
// stack overflowed (k/2 == 0 never reaches k == 1), which no caller can
// recover from; the shared driver panics the way RCB does. One part is
// the other edge: everything lands in part 0 without a bisection.
func TestPartCountGuard(t *testing.T) {
	m := testMesh(t, 2)
	g, _ := DualGraph(m)
	h, _ := ElementHypergraph(m, 0)
	in, _ := Centroids(m)
	for name, run := range map[string]func(k int) []int32{
		"MLGraph": func(k int) []int32 { return MLGraph(g, k) },
		"PHG":     func(k int) []int32 { return PHG(h, k) },
		"RCB":     func(k int) []int32 { return RCB(in, k) },
	} {
		for _, k := range []int{0, -2} {
			func() {
				defer func() {
					if got, want := recover(), fmt.Sprintf("zpart: nparts = %d", k); got != want {
						t.Errorf("%s(%d) panicked %v, want %q", name, k, got, want)
					}
				}()
				run(k)
			}()
		}
		for i, p := range run(1) {
			if p != 0 {
				t.Fatalf("%s(1): element %d in part %d", name, i, p)
			}
		}
	}
}

// TestMLGraphAllocs pins the allocation count of one MLGraph call on the
// pipeline benchmark's mesh: what is left is the graphs of each level,
// the side arrays and one workspace. The boxed heap and the per-level
// maps made 338,429.
func TestMLGraphAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g, _ := DualGraph(meshgen.Vessel3D(gmi.Vessel(10, 1, 0.6, 1.2), 36, 12))
	if got := testing.AllocsPerRun(2, func() { MLGraph(g, 16) }); got > 10000 {
		t.Fatalf("MLGraph(31k tets, 16 parts) made %.0f allocations, want <= 10000", got)
	}
}
