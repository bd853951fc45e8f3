package zpart

import (
	"sort"

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

// ConnectivityCut returns the (lambda-1) cut metric: for each net, its
// weight times (number of parts it spans - 1). This is the objective
// hypergraph partitioners like Zoltan PHG minimize, modeling true
// communication volume.
func (h *Hypergraph) ConnectivityCut(part []int32) float64 {
	cut := 0.0
	seen := map[int32]bool{}
	for n := 0; n < h.NN(); n++ {
		for k := range seen {
			delete(seen, k)
		}
		for j := h.NX[n]; j < h.NX[n+1]; j++ {
			seen[part[h.Pins[j]]] = true
		}
		if len(seen) > 1 {
			cut += h.NWt[n] * float64(len(seen)-1)
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
	h.buildFromPins(pinLists)
	return h, els
}

func (h *Hypergraph) buildFromPins(pinLists [][]int32) {
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

// PHG partitions the hypergraph into nparts by multilevel recursive
// bisection minimizing the connectivity-1 cut: inner-product style
// coarsening (vertices matched with the neighbor sharing the most
// nets), greedy initial growth, and FM refinement with net-based gains.
// It is the stand-in for Zoltan's parallel hypergraph partitioner used
// as test T0 in the paper.
func PHG(h *Hypergraph, nparts int) []int32 {
	out := make([]int32, h.NV())
	ids := make([]int32, h.NV())
	for i := range ids {
		ids[i] = int32(i)
	}
	phgRecurse(h, ids, 0, nparts, out)
	return out
}

func phgRecurse(h *Hypergraph, globalIDs []int32, base, k int, out []int32) {
	if k == 1 {
		for _, gid := range globalIDs {
			out[gid] = int32(base)
		}
		return
	}
	kl := k / 2
	side := hBisectMultilevel(h, float64(kl)/float64(k))
	for s := uint8(0); s < 2; s++ {
		sh, ids := h.sub(side, s)
		subIDs := make([]int32, len(ids))
		for i, li := range ids {
			subIDs[i] = globalIDs[li]
		}
		if s == 0 {
			phgRecurse(sh, subIDs, base, kl, out)
		} else {
			phgRecurse(sh, subIDs, base+kl, k-kl, out)
		}
	}
}

func hBisectMultilevel(h *Hypergraph, leftFrac float64) []uint8 {
	if h.NV() <= coarsenTarget {
		p := hGreedyGrow(h, leftFrac)
		hFMRefine(h, p, leftFrac, 8)
		return p
	}
	ch, cmap := h.coarsen()
	if ch.NV() >= h.NV()*9/10 {
		p := hGreedyGrow(h, leftFrac)
		hFMRefine(h, p, leftFrac, 8)
		return p
	}
	cp := hBisectMultilevel(ch, leftFrac)
	p := make([]uint8, h.NV())
	for v := range p {
		p[v] = cp[cmap[v]]
	}
	hFMRefine(h, p, leftFrac, 4)
	return p
}

// coarsen matches each vertex with the unmatched vertex it shares the
// most net weight with (inner-product matching).
func (h *Hypergraph) coarsen() (*Hypergraph, []int32) {
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
	ch.buildFromPins(pinLists)
	copy(ch.NWt, netWts)
	return ch, cmap
}

func (h *Hypergraph) sub(part []uint8, side uint8) (*Hypergraph, []int32) {
	var ids []int32
	local := make([]int32, h.NV())
	for i := range local {
		local[i] = -1
	}
	for v := 0; v < h.NV(); v++ {
		if part[v] == side {
			local[v] = int32(len(ids))
			ids = append(ids, int32(v))
		}
	}
	sh := &Hypergraph{VWt: make([]float64, len(ids))}
	for li, v := range ids {
		sh.VWt[li] = h.VWt[v]
	}
	var pinLists [][]int32
	var netWts []float64
	for n := 0; n < h.NN(); n++ {
		var pins []int32
		for j := h.NX[n]; j < h.NX[n+1]; j++ {
			if lp := local[h.Pins[j]]; lp >= 0 {
				pins = append(pins, lp)
			}
		}
		if len(pins) >= 2 {
			pinLists = append(pinLists, pins)
			netWts = append(netWts, h.NWt[n])
		}
	}
	sh.buildFromPins(pinLists)
	copy(sh.NWt, netWts)
	return sh, ids
}

func hGreedyGrow(h *Hypergraph, leftFrac float64) []uint8 {
	nv := h.NV()
	p := make([]uint8, nv)
	for i := range p {
		p[i] = 1
	}
	if nv == 0 {
		return p
	}
	total := 0.0
	for _, w := range h.VWt {
		total += w
	}
	target := total * leftFrac
	acc := 0.0
	visited := make([]bool, nv)
	queue := []int32{0}
	visited[0] = true
	for len(queue) > 0 && acc < target {
		v := queue[0]
		queue = queue[1:]
		p[v] = 0
		acc += h.VWt[v]
		for j := h.VX[v]; j < h.VX[v+1]; j++ {
			n := h.Nets[j]
			for pj := h.NX[n]; pj < h.NX[n+1]; pj++ {
				u := h.Pins[pj]
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
		if len(queue) == 0 && acc < target {
			for u := 0; u < nv; u++ {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, int32(u))
					break
				}
			}
		}
	}
	return p
}

// hFMRefine improves a hypergraph bisection with FM passes using the
// standard net-based gain: moving v helps when it empties its side of a
// net and hurts when it breaks a pure net.
func hFMRefine(h *Hypergraph, p []uint8, leftFrac float64, passes int) {
	nv := h.NV()
	total := 0.0
	maxVW := 0.0
	for _, w := range h.VWt {
		total += w
		if w > maxVW {
			maxVW = w
		}
	}
	target := total * leftFrac
	tol := total * 0.02
	if maxVW > tol {
		tol = maxVW
	}
	// side counts per net
	cnt := make([][2]int32, h.NN())
	recount := func() {
		for n := range cnt {
			cnt[n] = [2]int32{}
		}
		for n := 0; n < h.NN(); n++ {
			for j := h.NX[n]; j < h.NX[n+1]; j++ {
				cnt[n][p[h.Pins[j]]]++
			}
		}
	}
	gain := func(v int32) float64 {
		g := 0.0
		from := p[v]
		to := from ^ 1
		for j := h.VX[v]; j < h.VX[v+1]; j++ {
			n := h.Nets[j]
			if cnt[n][from] == 1 && cnt[n][to] > 0 {
				g += h.NWt[n]
			}
			if cnt[n][to] == 0 {
				g -= h.NWt[n]
			}
		}
		return g
	}
	leftW := 0.0
	for v := 0; v < nv; v++ {
		if p[v] == 0 {
			leftW += h.VWt[v]
		}
	}
	ver := make([]int64, nv)
	for pass := 0; pass < passes; pass++ {
		recount()
		var hp gainHeap
		moved := make([]bool, nv)
		for v := int32(0); v < int32(nv); v++ {
			onBoundary := false
			for j := h.VX[v]; j < h.VX[v+1]; j++ {
				n := h.Nets[j]
				if cnt[n][0] > 0 && cnt[n][1] > 0 {
					onBoundary = true
					break
				}
			}
			if onBoundary {
				hp.PushItem(gainItem{v: v, gain: gain(v), ver: ver[v]})
			}
		}
		var seq []int32
		cum, best := 0.0, 0.0
		bestLen := 0
		for hp.Len() > 0 {
			it := hp.PopItem()
			if moved[it.v] || it.ver != ver[it.v] {
				continue
			}
			w := h.VWt[it.v]
			newLeft := leftW
			if p[it.v] == 0 {
				newLeft -= w
			} else {
				newLeft += w
			}
			if newLeft < target-tol || newLeft > target+tol {
				continue
			}
			gv := gain(it.v)
			if gv < it.gain-1e-12 {
				ver[it.v]++
				hp.PushItem(gainItem{v: it.v, gain: gv, ver: ver[it.v]})
				continue
			}
			from := p[it.v]
			p[it.v] ^= 1
			leftW = newLeft
			moved[it.v] = true
			for j := h.VX[it.v]; j < h.VX[it.v+1]; j++ {
				n := h.Nets[j]
				cnt[n][from]--
				cnt[n][from^1]++
				for pj := h.NX[n]; pj < h.NX[n+1]; pj++ {
					u := h.Pins[pj]
					if !moved[u] {
						ver[u]++
						hp.PushItem(gainItem{v: u, gain: gain(u), ver: ver[u]})
					}
				}
			}
			seq = append(seq, it.v)
			cum += gv
			if cum > best {
				best = cum
				bestLen = len(seq)
			}
			if len(seq)-bestLen > 200 {
				break
			}
		}
		for i := len(seq) - 1; i >= bestLen; i-- {
			v := seq[i]
			if p[v] == 0 {
				leftW -= h.VWt[v]
			} else {
				leftW += h.VWt[v]
			}
			p[v] ^= 1
		}
		if best <= 0 {
			break
		}
	}
}
