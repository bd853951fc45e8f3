package zpart

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/fastmath/pumi-go/internal/adapt"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/vec"
)

// This file keeps the map-based extractors and coarseners the dense ones
// replaced (ref*, verbatim from commit 3465a69 but for their names) as
// the reference the new code is compared against array by array.

// mixedCells builds a hex with a pyramid on its top face, a prism on one
// side face and a tet on one of the pyramid's faces: four element types,
// so four slot columns.
func mixedCells() *mesh.Mesh {
	m := mesh.New(nil, 3)
	p := func(x, y, z float64) mesh.Ent { return m.CreateVertex(gmi.NoRef, vec.V{X: x, Y: y, Z: z}) }
	h := []mesh.Ent{p(0, 0, 0), p(1, 0, 0), p(1, 1, 0), p(0, 1, 0), p(0, 0, 1), p(1, 0, 1), p(1, 1, 1), p(0, 1, 1)}
	m.BuildFromVerts(mesh.Hex, h, gmi.NoRef)
	apex := p(0.5, 0.5, 2)
	m.BuildFromVerts(mesh.Pyramid, []mesh.Ent{h[4], h[5], h[6], h[7], apex}, gmi.NoRef)
	m.BuildFromVerts(mesh.Prism, []mesh.Ent{h[1], p(2, 0, 0), h[5], h[2], p(2, 1, 0), h[6]}, gmi.NoRef)
	m.BuildFromVerts(mesh.Tet, []mesh.Ent{h[5], h[6], apex, p(2, 0, 1)}, gmi.NoRef)
	return m
}

// churnedBox returns Box3D(3) after a refine + coarsen round around a
// seeded plane, so the tet column has free and reused slots.
func churnedBox(t *testing.T, seed int64) *mesh.Mesh {
	t.Helper()
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 3, 3, 3)
	c := 0.4 + 0.2*rand.New(rand.NewSource(seed)).Float64()
	size := func(p vec.V) float64 {
		if math.Abs(p.X+0.25*p.Y-c) < 0.15 {
			return 0.2
		}
		return 1.6
	}
	slotsBefore := m.Reserve(mesh.Tet, 0)
	splits := adapt.Refine(m, size, adapt.NopTransfer{}, 2)
	collapses := adapt.Coarsen(m, size, adapt.NopTransfer{}, 2)
	if splits == 0 || collapses == 0 {
		t.Fatalf("churn did %d splits, %d collapses; want both", splits, collapses)
	}
	if slots := m.Reserve(mesh.Tet, 0); slots <= slotsBefore || slots == m.CountType(mesh.Tet) {
		t.Fatalf("churn left %d tet slots for %d tets (%d before); want free slots", slots, m.CountType(mesh.Tet), slotsBefore)
	}
	return m
}

func sameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.XAdj, want.XAdj) || !slices.Equal(got.Adj, want.Adj) ||
		!slices.Equal(got.EWt, want.EWt) || !slices.Equal(got.VWt, want.VWt) {
		t.Errorf("%s: graph differs from the reference\n got %+v\nwant %+v", name, got, want)
	}
}

func sameHypergraph(t *testing.T, name string, got, want *Hypergraph) {
	t.Helper()
	if !slices.Equal(got.VX, want.VX) || !slices.Equal(got.Nets, want.Nets) ||
		!slices.Equal(got.NX, want.NX) || !slices.Equal(got.Pins, want.Pins) ||
		!slices.Equal(got.VWt, want.VWt) || !slices.Equal(got.NWt, want.NWt) {
		t.Errorf("%s: hypergraph differs from the reference\n got %+v\nwant %+v", name, got, want)
	}
}

// TestExtractionMatchesReference compares the slot-column extractors
// with the map-keyed ones on meshes that exercise the column: several
// element types at once, and a column with holes.
func TestExtractionMatchesReference(t *testing.T) {
	for name, m := range map[string]*mesh.Mesh{
		"mixed":   mixedCells(),
		"churned": churnedBox(t, 7),
	} {
		for bridge := 0; bridge < 3; bridge++ {
			g, els := BridgeGraph(m, bridge)
			rg, rels := refBridgeGraph(m, bridge)
			sameGraph(t, name, g, rg)
			if !slices.Equal(els, rels) {
				t.Errorf("%s: BridgeGraph(%d) element order differs", name, bridge)
			}
			h, els := ElementHypergraph(m, bridge)
			rh, rels := refElementHypergraph(m, bridge)
			sameHypergraph(t, name, h, rh)
			if !slices.Equal(els, rels) {
				t.Errorf("%s: ElementHypergraph(%d) element order differs", name, bridge)
			}
		}
	}
}

// graphFromEdges builds a unit-weight CSR graph on n vertices.
func graphFromEdges(n int, edges [][2]int32) *Graph {
	g := &Graph{XAdj: make([]int32, n+1), VWt: unitWeights(n)}
	lists := make([][]int32, n)
	for _, e := range edges {
		lists[e[0]] = append(lists[e[0]], e[1])
		lists[e[1]] = append(lists[e[1]], e[0])
	}
	for v, l := range lists {
		slices.Sort(l)
		g.Adj = append(g.Adj, l...)
		g.XAdj[v+1] = int32(len(g.Adj))
	}
	g.EWt = unitWeights(len(g.Adj))
	return g
}

// TestCoarsenMatchesMapMerge compares the dense-accumulator coarsening
// with the map merge, level after level until the matching stalls: on a
// star (stalls at once), on two disjoint grids, on no graph at all, and
// on mesh dual graphs whose weights grow past one as they coarsen.
func TestCoarsenMatchesMapMerge(t *testing.T) {
	var star, grids [][2]int32
	for v := int32(1); v < 100; v++ {
		star = append(star, [2]int32{0, v})
	}
	for _, off := range []int32{0, 100} { // two 10x10 grids, no edge between them
		for i := int32(0); i < 10; i++ {
			for j := int32(0); j < 10; j++ {
				if v := off + 10*i + j; j < 9 {
					grids = append(grids, [2]int32{v, v + 1})
				}
				if v := off + 10*i + j; i < 9 {
					grids = append(grids, [2]int32{v, v + 10})
				}
			}
		}
	}
	dual, _ := DualGraph(testMesh(t, 4))
	bridged, _ := BridgeGraph(testMesh(t, 3), 0)
	for name, g := range map[string]*Graph{
		"star":         graphFromEdges(100, star),
		"disconnected": graphFromEdges(200, grids),
		"empty":        graphFromEdges(0, nil),
		"dual":         dual,
		"bridged":      bridged,
	} {
		// The driver must cope with each of them too.
		if part := MLGraph(g, 2); len(part) != g.N() {
			t.Errorf("%s: MLGraph assigned %d of %d vertices", name, len(part), g.N())
		}
		ws := newWorkspace(g.N(), 0)
		for level := 0; ; level++ {
			cg, cmap := g.coarsen(ws)
			rg, rmap := refCoarsenGraph(g)
			sameGraph(t, name, cg, rg)
			if !slices.Equal(cmap, rmap) {
				t.Errorf("%s level %d: fine-to-coarse map differs", name, level)
			}
			if name == "star" && (level > 0 || cg.N() != 99) {
				t.Errorf("star: level %d has %d vertices; want one stalled level of 99", level, cg.N())
			}
			if cg.N() >= g.N()*9/10 {
				break
			}
			g = cg
		}
	}

	h, _ := ElementHypergraph(testMesh(t, 4), 0)
	ws := newWorkspace(h.NV(), h.NN())
	for level := 0; h.NV() > 8; level++ {
		ch, cmap := h.coarsen(ws)
		rh, rmap := refCoarsenHypergraph(h)
		sameHypergraph(t, "hypergraph", ch, rh)
		if !slices.Equal(cmap, rmap) {
			t.Errorf("hypergraph level %d: fine-to-coarse map differs", level)
		}
		if ch.NV() >= h.NV()*9/10 {
			break
		}
		h = ch
	}
}

func refBridgeGraph(m *mesh.Mesh, bridgeDim int) (*Graph, []mesh.Ent) {
	var els []mesh.Ent
	index := map[mesh.Ent]int32{}
	for el := range m.Elements() {
		index[el] = int32(len(els))
		els = append(els, el)
	}
	n := len(els)
	type edge struct {
		u, v int32
	}
	weights := map[edge]float64{}
	var adj []mesh.Ent
	for b := range m.Iter(bridgeDim) {
		adj = m.AdjacentTo(b, m.Dim(), adj[:0])
		for i := 0; i < len(adj); i++ {
			for j := i + 1; j < len(adj); j++ {
				u, v := index[adj[i]], index[adj[j]]
				if u > v {
					u, v = v, u
				}
				weights[edge{u, v}]++
			}
		}
	}
	deg := make([]int32, n+1)
	for e := range weights {
		deg[e.u+1]++
		deg[e.v+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	g := &Graph{
		XAdj: deg,
		Adj:  make([]int32, deg[n]),
		EWt:  make([]float64, deg[n]),
		VWt:  make([]float64, n),
	}
	for i := range g.VWt {
		g.VWt[i] = 1
	}
	fill := make([]int32, n)
	edges := make([]edge, 0, len(weights))
	for e := range weights {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].u != edges[b].u {
			return edges[a].u < edges[b].u
		}
		return edges[a].v < edges[b].v
	})
	for _, e := range edges {
		w := weights[e]
		pu := g.XAdj[e.u] + fill[e.u]
		g.Adj[pu] = e.v
		g.EWt[pu] = w
		fill[e.u]++
		pv := g.XAdj[e.v] + fill[e.v]
		g.Adj[pv] = e.u
		g.EWt[pv] = w
		fill[e.v]++
	}
	return g, els
}

func refCoarsenGraph(g *Graph) (*Graph, []int32) {
	n := g.N()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	// Visit vertices in order; match each with its heaviest unmatched
	// neighbor (deterministic).
	for v := 0; v < n; v++ {
		if match[v] >= 0 {
			continue
		}
		best := int32(-1)
		bestW := -1.0
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			u := g.Adj[j]
			if match[u] >= 0 || u == int32(v) {
				continue
			}
			if g.EWt[j] > bestW {
				bestW = g.EWt[j]
				best = u
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = int32(v)
		} else {
			match[v] = int32(v)
		}
	}
	cmap := make([]int32, n)
	nc := int32(0)
	for v := 0; v < n; v++ {
		if int(match[v]) >= v {
			cmap[v] = nc
			if int(match[v]) != v {
				cmap[match[v]] = nc
			}
			nc++
		}
	}
	cg := &Graph{VWt: make([]float64, nc)}
	for v := 0; v < n; v++ {
		cg.VWt[cmap[v]] += g.VWt[v]
	}
	// Merge edges.
	type edge struct{ u, v int32 }
	weights := map[edge]float64{}
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			cu := cmap[g.Adj[j]]
			if cu == cv {
				continue
			}
			a, b := cv, cu
			if a > b {
				a, b = b, a
			}
			weights[edge{a, b}] += g.EWt[j] / 2 // each fine edge visited twice
		}
	}
	deg := make([]int32, nc+1)
	for e := range weights {
		deg[e.u+1]++
		deg[e.v+1]++
	}
	for i := int32(0); i < nc; i++ {
		deg[i+1] += deg[i]
	}
	cg.XAdj = deg
	cg.Adj = make([]int32, deg[nc])
	cg.EWt = make([]float64, deg[nc])
	fill := make([]int32, nc)
	edges := make([]edge, 0, len(weights))
	for e := range weights {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].u != edges[b].u {
			return edges[a].u < edges[b].u
		}
		return edges[a].v < edges[b].v
	})
	for _, e := range edges {
		w := weights[e]
		pu := cg.XAdj[e.u] + fill[e.u]
		cg.Adj[pu] = e.v
		cg.EWt[pu] = w
		fill[e.u]++
		pv := cg.XAdj[e.v] + fill[e.v]
		cg.Adj[pv] = e.u
		cg.EWt[pv] = w
		fill[e.v]++
	}
	return cg, cmap
}

func refElementHypergraph(m *mesh.Mesh, netDim int) (*Hypergraph, []mesh.Ent) {
	var els []mesh.Ent
	index := map[mesh.Ent]int32{}
	for el := range m.Elements() {
		index[el] = int32(len(els))
		els = append(els, el)
	}
	h := &Hypergraph{VWt: make([]float64, len(els))}
	for i := range h.VWt {
		h.VWt[i] = 1
	}
	var pinLists [][]int32
	var adj []mesh.Ent
	for b := range m.Iter(netDim) {
		adj = m.AdjacentTo(b, m.Dim(), adj[:0])
		if len(adj) < 2 {
			continue
		}
		pins := make([]int32, len(adj))
		for i, el := range adj {
			pins[i] = index[el]
		}
		pinLists = append(pinLists, pins)
	}
	refBuildFromPins(h, pinLists)
	return h, els
}

func refBuildFromPins(h *Hypergraph, pinLists [][]int32) {
	nn := len(pinLists)
	h.NWt = make([]float64, nn)
	h.NX = make([]int32, nn+1)
	for n, pins := range pinLists {
		h.NWt[n] = 1
		h.NX[n+1] = h.NX[n] + int32(len(pins))
	}
	h.Pins = make([]int32, h.NX[nn])
	vdeg := make([]int32, h.NV()+1)
	for n, pins := range pinLists {
		copy(h.Pins[h.NX[n]:], pins)
		for _, p := range pins {
			vdeg[p+1]++
		}
	}
	for i := 0; i < h.NV(); i++ {
		vdeg[i+1] += vdeg[i]
	}
	h.VX = vdeg
	h.Nets = make([]int32, h.VX[h.NV()])
	fill := make([]int32, h.NV())
	for n, pins := range pinLists {
		for _, p := range pins {
			h.Nets[h.VX[p]+fill[p]] = int32(n)
			fill[p]++
		}
	}
}

func refCoarsenHypergraph(h *Hypergraph) (*Hypergraph, []int32) {
	nv := h.NV()
	match := make([]int32, nv)
	for i := range match {
		match[i] = -1
	}
	score := map[int32]float64{}
	for v := 0; v < nv; v++ {
		if match[v] >= 0 {
			continue
		}
		for k := range score {
			delete(score, k)
		}
		for j := h.VX[v]; j < h.VX[v+1]; j++ {
			n := h.Nets[j]
			sz := float64(h.NX[n+1] - h.NX[n])
			for pj := h.NX[n]; pj < h.NX[n+1]; pj++ {
				u := h.Pins[pj]
				if int(u) != v && match[u] < 0 {
					score[u] += h.NWt[n] / (sz - 1)
				}
			}
		}
		best := int32(-1)
		bestS := 0.0
		for u, s := range score {
			if s > bestS || (s == bestS && best >= 0 && u < best) {
				bestS = s
				best = u
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = int32(v)
		} else {
			match[v] = int32(v)
		}
	}
	cmap := make([]int32, nv)
	nc := int32(0)
	for v := 0; v < nv; v++ {
		if int(match[v]) >= v {
			cmap[v] = nc
			if int(match[v]) != v {
				cmap[match[v]] = nc
			}
			nc++
		}
	}
	ch := &Hypergraph{VWt: make([]float64, nc)}
	for v := 0; v < nv; v++ {
		ch.VWt[cmap[v]] += h.VWt[v]
	}
	// Remap nets; drop singletons; merge identical pin sets.
	var pinLists [][]int32
	netWts := []float64{}
	seenNets := map[string]int{}
	var keyBuf []byte
	for n := 0; n < h.NN(); n++ {
		set := map[int32]bool{}
		for j := h.NX[n]; j < h.NX[n+1]; j++ {
			set[cmap[h.Pins[j]]] = true
		}
		if len(set) < 2 {
			continue
		}
		pins := make([]int32, 0, len(set))
		for p := range set {
			pins = append(pins, p)
		}
		sort.Slice(pins, func(a, b int) bool { return pins[a] < pins[b] })
		keyBuf = keyBuf[:0]
		for _, p := range pins {
			keyBuf = append(keyBuf, byte(p>>24), byte(p>>16), byte(p>>8), byte(p))
		}
		if idx, ok := seenNets[string(keyBuf)]; ok {
			netWts[idx] += h.NWt[n]
			continue
		}
		seenNets[string(keyBuf)] = len(pinLists)
		pinLists = append(pinLists, pins)
		netWts = append(netWts, h.NWt[n])
	}
	refBuildFromPins(ch, pinLists)
	copy(ch.NWt, netWts)
	return ch, cmap
}
