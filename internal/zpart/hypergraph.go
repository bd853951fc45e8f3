package zpart

import (
	"cmp"
	"slices"

	"github.com/fastmath/pumi-go/internal/mesh"
)

// Hypergraph is a weighted hypergraph in dual CSR form: vertex v's nets
// are Nets[VX[v]:VX[v+1]]; net n's pins are Pins[NX[n]:NX[n+1]].
type Hypergraph struct {
	VX   []int32
	Nets []int32
	NX   []int32
	Pins []int32
	VWt  []float64
	NWt  []float64
}

// NV returns the vertex count.
func (h *Hypergraph) NV() int { return len(h.VWt) }

// NN returns the net count.
func (h *Hypergraph) NN() int { return len(h.NWt) }

func (h *Hypergraph) pins(n int32) []int32 { return h.Pins[h.NX[n]:h.NX[n+1]] }
func (h *Hypergraph) nets(v int32) []int32 { return h.Nets[h.VX[v]:h.VX[v+1]] }

// ConnectivityCut returns the (lambda-1) cut metric: for each net, its
// weight times (number of parts it spans - 1). This is the objective
// hypergraph partitioners like Zoltan PHG minimize, modeling true
// communication volume.
func (h *Hypergraph) ConnectivityCut(part []int32) float64 { return connectivityCut(h, part) }

func (h *Hypergraph) cut(side []uint8) float64 { return connectivityCut(h, side) }

func connectivityCut[P int32 | uint8](h *Hypergraph, part []P) float64 {
	cut := 0.0
	maxPart := P(0)
	for _, p := range part {
		maxPart = max(maxPart, p)
	}
	seen := make([]int32, int(maxPart)+1) // part id -> 1 + the last net seen to reach it
	for n := int32(0); n < int32(h.NN()); n++ {
		spans := 0
		for _, v := range h.pins(n) {
			if seen[part[v]] != n+1 {
				seen[part[v]] = n + 1
				spans++
			}
		}
		if spans > 1 {
			cut += h.NWt[n] * float64(spans-1)
		}
	}
	return cut
}

// ElementHypergraph extracts the element hypergraph of a mesh: one
// vertex per element, one net per mesh entity of dimension netDim
// connecting all elements adjacent to it (netDim 0 models communication
// through shared vertices, as PHG setups for FE meshes typically do).
// Nets with fewer than two pins are dropped.
func ElementHypergraph(m *mesh.Mesh, netDim int) (*Hypergraph, []mesh.Ent) {
	els, col := elementColumns(m)
	h := &Hypergraph{VWt: unitWeights(len(els)), NX: make([]int32, 1, m.Count(netDim)+1)}
	var adj []mesh.Ent
	for b := range m.Iter(netDim) {
		adj = m.AdjacentTo(b, m.Dim(), adj[:0])
		if len(adj) < 2 {
			continue
		}
		for _, el := range adj {
			h.Pins = append(h.Pins, col[el.T][el.I])
		}
		h.NX = append(h.NX, int32(len(h.Pins)))
	}
	h.NWt = unitWeights(len(h.NX) - 1)
	h.indexVertices()
	return h, els
}

// indexVertices derives the vertex-to-nets view (VX, Nets) from the
// net-to-pins one.
func (h *Hypergraph) indexVertices() {
	nv := h.NV()
	h.VX = make([]int32, nv+1)
	for _, p := range h.Pins {
		h.VX[p+1]++
	}
	for i := 0; i < nv; i++ {
		h.VX[i+1] += h.VX[i]
	}
	h.Nets = make([]int32, len(h.Pins))
	fill := make([]int32, nv)
	for n := int32(0); n < int32(h.NN()); n++ {
		for _, p := range h.pins(n) {
			h.Nets[h.VX[p]+fill[p]] = n
			fill[p]++
		}
	}
}

func (h *Hypergraph) vwt() []float64 { return h.VWt }

// coarsen matches each vertex with the unmatched vertex it shares the
// most net weight with (inner-product matching).
func (h *Hypergraph) coarsen(ws *workspace) (*Hypergraph, []int32) {
	nv := int32(h.NV())
	match, mark, score := ws.match[:nv], ws.mark[:nv], ws.acc[:nv]
	for i := range match {
		match[i] = -1
	}
	clear(mark)
	for v := int32(0); v < nv; v++ {
		if match[v] >= 0 {
			continue
		}
		// mark stamps the unmatched vertices sharing a net with v, score
		// holds their inner products.
		touched := ws.list[:0]
		for _, n := range h.nets(v) {
			pins := h.pins(n)
			s := h.NWt[n] / (float64(len(pins)) - 1)
			for _, u := range pins {
				switch {
				case u == v || match[u] >= 0:
				case mark[u] != v+1:
					mark[u] = v + 1
					score[u] = s
					touched = append(touched, u)
				default:
					score[u] += s
				}
			}
		}
		best, bestS := v, 0.0
		for _, u := range touched {
			if s := score[u]; s > bestS || (s == bestS && best != v && u < best) {
				best, bestS = u, s
			}
		}
		match[v], match[best] = best, v
	}
	coarseOf, nc, cvwt := contractMatching(match, h.VWt)
	ch := &Hypergraph{VWt: cvwt}
	// Remap nets, drop singletons. kept[i] is a surviving net, its coarse
	// pins sorted in pins[nx[i]:nx[i+1]].
	mark = ws.mark[:nc]
	clear(mark)
	pins := make([]int32, 0, len(h.Pins))
	nx := make([]int32, 1, h.NN()+1)
	var kept []int32
	for n := int32(0); n < int32(h.NN()); n++ {
		start := len(pins)
		for _, p := range h.pins(n) {
			if c := coarseOf[p]; mark[c] != n+1 {
				mark[c] = n + 1
				pins = append(pins, c)
			}
		}
		if len(pins)-start < 2 {
			pins = pins[:start]
			continue
		}
		slices.Sort(pins[start:])
		nx = append(nx, int32(len(pins)))
		kept = append(kept, n)
	}
	// Merge identical pin sets into the first net that has them: order
	// the survivors by pin set then position, so duplicates follow their
	// first occurrence, and emit the firsts in position order.
	order := make([]int32, len(kept))
	for i := range order {
		order[i] = int32(i)
	}
	pinsOf := func(i int32) []int32 { return pins[nx[i]:nx[i+1]] }
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(slices.Compare(pinsOf(a), pinsOf(b)), cmp.Compare(a, b))
	})
	first := make([]int32, len(kept)) // survivor -> the first survivor with its pin set
	for j, i := range order {
		first[i] = i
		if j > 0 && slices.Equal(pinsOf(i), pinsOf(order[j-1])) {
			first[i] = first[order[j-1]]
		}
	}
	netOf := make([]int32, len(kept)) // first survivor -> the coarse net it became
	ch.NX = make([]int32, 1, len(kept)+1)
	ch.Pins = make([]int32, 0, len(pins))
	for i, n := range kept {
		if f := first[i]; f != int32(i) {
			ch.NWt[netOf[f]] += h.NWt[n]
			continue
		}
		netOf[i] = int32(len(ch.NWt))
		ch.Pins = append(ch.Pins, pinsOf(int32(i))...)
		ch.NX = append(ch.NX, int32(len(ch.Pins)))
		ch.NWt = append(ch.NWt, h.NWt[n])
	}
	ch.indexVertices()
	return ch, coarseOf
}

// sub extracts the sub-hypergraph induced by the vertices with
// part[v]==side, dropping nets left with fewer than two pins.
func (h *Hypergraph) sub(part []uint8, side uint8, ws *workspace) (*Hypergraph, []int32) {
	ids, local := sideVertices(part, side, ws)
	sh := &Hypergraph{
		VWt:  make([]float64, len(ids)),
		NX:   make([]int32, 1, h.NN()+1),
		Pins: make([]int32, 0, len(h.Pins)),
	}
	for li, v := range ids {
		sh.VWt[li] = h.VWt[v]
	}
	for n := int32(0); n < int32(h.NN()); n++ {
		start := len(sh.Pins)
		for _, p := range h.pins(n) {
			if lp := local[p]; lp >= 0 {
				sh.Pins = append(sh.Pins, lp)
			}
		}
		if len(sh.Pins)-start < 2 {
			sh.Pins = sh.Pins[:start]
			continue
		}
		sh.NX = append(sh.NX, int32(len(sh.Pins)))
		sh.NWt = append(sh.NWt, h.NWt[n])
	}
	sh.indexVertices()
	return sh, ids
}

// neighbors appends every pin of every net of v to buf: v itself and
// repeats included, which the callers' visited marks absorb.
func (h *Hypergraph) neighbors(v int32, buf []int32) []int32 {
	for _, n := range h.nets(v) {
		buf = append(buf, h.pins(n)...)
	}
	return buf
}

// beginPass counts each net's pins per side of ws.side into ws.cnt.
func (h *Hypergraph) beginPass(ws *workspace) {
	cnt := ws.cnt[:h.NN()]
	clear(cnt)
	for n := range cnt {
		for _, v := range h.pins(int32(n)) {
			cnt[n][ws.side[v]]++
		}
	}
}

// gain is the standard net-based FM gain: moving v helps when it empties
// its side of a cut net and hurts when it cuts a pure one.
func (h *Hypergraph) gain(v int32, ws *workspace) (gain float64, boundary bool) {
	from := ws.side[v]
	for _, n := range h.nets(v) {
		switch c := ws.cnt[n]; {
		case c[from^1] == 0:
			gain -= h.NWt[n]
		case c[from] == 1:
			gain += h.NWt[n]
			boundary = true
		default:
			boundary = true
		}
	}
	return gain, boundary
}

// moved moves v's pin in each of its nets to the side v is now on and
// requeues that net's pins before the next net's counts change — only
// for a net whose counts cross the 0, 1 or 2 a gain reads; any other
// net leaves every pin's gain as it was.
func (h *Hypergraph) moved(v int32, ws *workspace) {
	to := ws.side[v]
	for _, n := range h.nets(v) {
		c := &ws.cnt[n]
		critical := c[to] <= 1 || c[to^1] <= 2
		c[to^1]--
		c[to]++
		if critical {
			for _, u := range h.pins(n) {
				if !ws.flag[u] {
					gain, _ := h.gain(u, ws)
					ws.requeue(u, gain)
				}
			}
		}
	}
}
