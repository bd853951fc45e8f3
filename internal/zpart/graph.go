package zpart

import (
	"slices"

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

// EdgeCut returns the total weight of edges crossing parts under the
// given assignment (each edge counted once).
func (g *Graph) EdgeCut(part []int32) float64 { return edgeCut(g, part) }

func (g *Graph) cut(side []uint8) float64 { return edgeCut(g, side) }

func edgeCut[P int32 | uint8](g *Graph, part []P) float64 {
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

// elementColumns numbers the mesh's elements in iteration order: els[i]
// is element i, and col[t][slot] is the number of the type-t element in
// that slot. Entries of free slots are never read.
func elementColumns(m *mesh.Mesh) (els []mesh.Ent, col [mesh.TypeCount][]int32) {
	els = make([]mesh.Ent, 0, m.Count(m.Dim()))
	for _, t := range mesh.TypesOfDim(m.Dim()) {
		col[t] = make([]int32, m.Reserve(t, 0)) // reserving nothing reports the slot count
	}
	for el := range m.Elements() {
		col[el.T][el.I] = int32(len(els))
		els = append(els, el)
	}
	return els, col
}

// unitWeights returns n ones.
func unitWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
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
	els, col := elementColumns(m)
	n := len(els)
	// One packed (u<<32 | v), u < v, per pair of elements around each
	// bridge entity; sorted, a run of equal words is one edge and its
	// length the edge's weight.
	pairs := make([]uint64, 0, m.Count(bridgeDim))
	var adj []mesh.Ent
	for b := range m.Iter(bridgeDim) {
		adj = m.AdjacentTo(b, m.Dim(), adj[:0])
		for i, a := range adj {
			u := col[a.T][a.I]
			for _, o := range adj[i+1:] {
				v := col[o.T][o.I]
				pairs = append(pairs, uint64(min(u, v))<<32|uint64(max(u, v)))
			}
		}
	}
	slices.Sort(pairs)
	xadj := make([]int32, n+1)
	for i, p := range pairs {
		if i == 0 || p != pairs[i-1] {
			xadj[p>>32+1]++
			xadj[uint32(p)+1]++
		}
	}
	for i := 0; i < n; i++ {
		xadj[i+1] += xadj[i]
	}
	g := &Graph{
		XAdj: xadj,
		Adj:  make([]int32, xadj[n]),
		EWt:  make([]float64, xadj[n]),
		VWt:  unitWeights(n),
	}
	// Ascending pairs fill every list ascending: v's lower neighbors
	// (u, v) all come before its higher ones (v, w).
	fill := make([]int32, n)
	for i := 0; i < len(pairs); {
		run := i + 1
		for run < len(pairs) && pairs[run] == pairs[i] {
			run++
		}
		u, v, w := int32(pairs[i]>>32), int32(uint32(pairs[i])), float64(run-i)
		pu, pv := xadj[u]+fill[u], xadj[v]+fill[v]
		g.Adj[pu], g.EWt[pu] = v, w
		g.Adj[pv], g.EWt[pv] = u, w
		fill[u]++
		fill[v]++
		i = run
	}
	return g, els
}

func (g *Graph) vwt() []float64 { return g.VWt }

// contractMatching numbers the pairs of a matching (match[v] is v's
// partner, or v itself) in order of their lower vertex and returns the
// fine-to-coarse map, the coarse vertex count and the coarse weights.
func contractMatching(match []int32, vwt []float64) (coarseOf []int32, nc int32, cvwt []float64) {
	coarseOf = make([]int32, len(match))
	for v, u := range match {
		if int(u) >= v {
			coarseOf[v], coarseOf[u] = nc, nc
			nc++
		}
	}
	cvwt = make([]float64, nc)
	for v, w := range vwt {
		cvwt[coarseOf[v]] += w
	}
	return coarseOf, nc, cvwt
}

// coarsen contracts the graph by heavy-edge matching and returns the
// coarse graph plus the fine-to-coarse vertex map.
func (g *Graph) coarsen(ws *workspace) (*Graph, []int32) {
	n := g.N()
	match := ws.match[:n]
	for i := range match {
		match[i] = -1
	}
	// Visit vertices in order; match each with its heaviest unmatched
	// neighbor (deterministic).
	for v := int32(0); v < int32(n); v++ {
		if match[v] >= 0 {
			continue
		}
		best := v
		bestW := -1.0
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			u := g.Adj[j]
			if match[u] < 0 && u != v && g.EWt[j] > bestW {
				bestW = g.EWt[j]
				best = u
			}
		}
		match[v], match[best] = best, v
	}
	coarseOf, nc, cvwt := contractMatching(match, g.VWt)
	cg := &Graph{
		XAdj: make([]int32, nc+1),
		Adj:  make([]int32, 0, len(g.Adj)),
		EWt:  make([]float64, 0, len(g.Adj)),
		VWt:  cvwt,
	}
	// Merge the fine edges of each coarse vertex's members through a
	// dense accumulator: mark stamps the coarse neighbors seen from c,
	// acc holds their weights, and the touched list is emitted ascending.
	// Each side sums the whole fine weights, which is what halving every
	// weight and adding it from both ends comes to: the weights are
	// integer-valued (counts of shared bridge entities), so neither sum
	// rounds.
	mark, acc := ws.mark[:nc], ws.acc[:nc]
	clear(mark)
	for v := int32(0); v < int32(n); v++ {
		if match[v] < v {
			continue
		}
		c := coarseOf[v]
		touched := ws.list[:0]
		for member := v; ; member = match[v] {
			for j := g.XAdj[member]; j < g.XAdj[member+1]; j++ {
				cu := coarseOf[g.Adj[j]]
				switch {
				case cu == c:
				case mark[cu] != c+1:
					mark[cu] = c + 1
					acc[cu] = g.EWt[j]
					touched = append(touched, cu)
				default:
					acc[cu] += g.EWt[j]
				}
			}
			if member == match[v] {
				break
			}
		}
		slices.Sort(touched)
		for _, cu := range touched {
			cg.Adj = append(cg.Adj, cu)
			cg.EWt = append(cg.EWt, acc[cu])
		}
		cg.XAdj[c+1] = int32(len(cg.Adj))
	}
	return cg, coarseOf
}

// sub extracts the induced subgraph of the vertices with part[v]==side,
// returning it plus the local-to-global index map.
func (g *Graph) sub(part []uint8, side uint8, ws *workspace) (*Graph, []int32) {
	ids, local := sideVertices(part, side, ws)
	sg := &Graph{VWt: make([]float64, len(ids)), XAdj: make([]int32, len(ids)+1)}
	for li, v := range ids {
		sg.VWt[li] = g.VWt[v]
		deg := int32(0)
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			if local[g.Adj[j]] >= 0 {
				deg++
			}
		}
		sg.XAdj[li+1] = sg.XAdj[li] + deg
	}
	sg.Adj = make([]int32, 0, sg.XAdj[len(ids)])
	sg.EWt = make([]float64, 0, sg.XAdj[len(ids)])
	for _, v := range ids {
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			if lu := local[g.Adj[j]]; lu >= 0 {
				sg.Adj = append(sg.Adj, lu)
				sg.EWt = append(sg.EWt, g.EWt[j])
			}
		}
	}
	return sg, ids
}

func (g *Graph) adj(v int32) []int32 { return g.Adj[g.XAdj[v]:g.XAdj[v+1]] }

func (g *Graph) neighbors(v int32, _ []int32) []int32 { return g.adj(v) }

func (g *Graph) beginPass(*workspace) {}

// gain is the cut weight saved by moving v to the other side: external
// minus internal edge weight. It is kept in ws.acc from here, at the start
// of a pass, for moved to update.
func (g *Graph) gain(v int32, ws *workspace) (gain float64, boundary bool) {
	p, pv := ws.side, ws.side[v]
	wt := g.EWt[g.XAdj[v]:g.XAdj[v+1]]
	ext, inn := 0.0, 0.0
	for i, u := range g.adj(v) {
		if p[u] == pv {
			inn += wt[i]
		} else {
			ext += wt[i]
			boundary = true
		}
	}
	ws.acc[v] = ext - inn
	return ext - inn, boundary
}

// moved changes the gain of each of v's neighbors by twice their edge:
// down if v joined its side, up if v left it.
func (g *Graph) moved(v int32, ws *workspace) {
	wt := g.EWt[g.XAdj[v]:g.XAdj[v+1]]
	for i, u := range g.adj(v) {
		if ws.side[u] == ws.side[v] {
			ws.acc[u] -= 2 * wt[i]
		} else {
			ws.acc[u] += 2 * wt[i]
		}
		if !ws.flag[u] {
			ws.requeue(u, ws.acc[u])
		}
	}
}
