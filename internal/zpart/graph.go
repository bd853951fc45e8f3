package zpart

import (
	"sort"

	"github.com/fastmath/pumi-go/internal/mesh"
)

// Graph is a weighted undirected graph in CSR form: the neighbors of
// vertex i are Adj[XAdj[i]:XAdj[i+1]] with matching edge weights in
// EWt. VWt holds vertex weights.
type Graph struct {
	XAdj []int32
	Adj  []int32
	EWt  []float64
	VWt  []float64
}

// N returns the vertex count.
func (g *Graph) N() int { return len(g.VWt) }

// TotalVWt returns the sum of vertex weights.
func (g *Graph) TotalVWt() float64 {
	t := 0.0
	for _, w := range g.VWt {
		t += w
	}
	return t
}

// EdgeCut returns the total weight of edges crossing parts under the
// given assignment (each edge counted once).
func (g *Graph) EdgeCut(part []int32) float64 {
	cut := 0.0
	for v := 0; v < g.N(); v++ {
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			u := g.Adj[j]
			if int32(v) < u && part[v] != part[u] {
				cut += g.EWt[j]
			}
		}
	}
	return cut
}

// DualGraph extracts the element dual graph of a mesh: one graph vertex
// per element, edges between elements sharing a face (dimension
// mesh.Dim()-1), unit weights. It also returns the element handles in
// vertex order.
func DualGraph(m *mesh.Mesh) (*Graph, []mesh.Ent) {
	return BridgeGraph(m, m.Dim()-1)
}

// BridgeGraph extracts the element adjacency graph through shared
// entities of the given bridge dimension. Edge weights count the number
// of shared bridge entities (so vertex-bridged graphs weigh tighter
// couplings heavier).
func BridgeGraph(m *mesh.Mesh, bridgeDim int) (*Graph, []mesh.Ent) {
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

// coarsen contracts the graph by heavy-edge matching and returns the
// coarse graph plus the fine-to-coarse vertex map.
func (g *Graph) coarsen() (*Graph, []int32) {
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

// subgraph extracts the induced subgraph of the vertices with
// part[v]==side, returning it plus the local-to-global index map.
func (g *Graph) subgraph(part []uint8, side uint8) (*Graph, []int32) {
	var ids []int32
	local := make([]int32, g.N())
	for i := range local {
		local[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		if part[v] == side {
			local[v] = int32(len(ids))
			ids = append(ids, int32(v))
		}
	}
	sg := &Graph{VWt: make([]float64, len(ids))}
	deg := make([]int32, len(ids)+1)
	for li, v := range ids {
		sg.VWt[li] = g.VWt[v]
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			if local[g.Adj[j]] >= 0 {
				deg[li+1]++
			}
		}
	}
	for i := 0; i < len(ids); i++ {
		deg[i+1] += deg[i]
	}
	sg.XAdj = deg
	sg.Adj = make([]int32, deg[len(ids)])
	sg.EWt = make([]float64, deg[len(ids)])
	fill := make([]int32, len(ids))
	for li, v := range ids {
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			lu := local[g.Adj[j]]
			if lu < 0 {
				continue
			}
			p := sg.XAdj[li] + fill[li]
			sg.Adj[p] = lu
			sg.EWt[p] = g.EWt[j]
			fill[li]++
		}
	}
	return sg, ids
}
