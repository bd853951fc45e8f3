package zpart

import (
	"fmt"
	"math"
	"math/bits"
)

const (
	// coarsenTarget is the vertex count at which coarsening stops and the
	// initial bisection is grown.
	coarsenTarget = 64
	// growTries is how many initial bisections are grown, from as many
	// seeds, and refined; the one with the least cut is kept.
	growTries = 6
	// imbalanceTarget is how far above the mean weight a leaf part may
	// land. The ⌈log₂ k⌉ levels of the recursion split it as a budget:
	// each bisection may miss by (1+imbalanceTarget)^(1/levels) − 1 of
	// its smaller side's target, so the misses compound to at most this.
	imbalanceTarget = 0.05
)

// model is what the multilevel driver needs of the thing it bisects; M is
// the implementing type itself (*Graph or *Hypergraph).
type model[M any] interface {
	// vwt holds one weight per vertex.
	vwt() []float64
	// coarsen contracts a matching and returns the coarse model plus the
	// fine-to-coarse vertex map.
	coarsen(ws *workspace) (M, []int32)
	// sub induces the model on the vertices with part[v]==side and
	// returns it plus the local-to-global vertex map.
	sub(part []uint8, side uint8, ws *workspace) (M, []int32)
	// neighbors lists the vertices coupled to v, in buf or in place.
	neighbors(v int32, buf []int32) []int32
	// beginPass readies whatever gain reads beside ws.side.
	beginPass(ws *workspace)
	// gain is the cut saved by moving v across ws.side, and whether v
	// touches the cut at all.
	gain(v int32, ws *workspace) (gain float64, boundary bool)
	// moved follows a move of v (ws.side[v] already flipped): it updates
	// the model's own counts and requeues, at its final gain, every vertex
	// whose gain changed and that has not moved this pass — so the current
	// heap entry of a vertex always holds its true gain.
	moved(v int32, ws *workspace)
	// cut is what a bisection costs: the weight of what it splits.
	cut(side []uint8) float64
}

// workspace is the scratch one partitioning call allocates once, sized by
// the root model, and reuses down the recursion, over the levels of each
// bisection and across refinement passes.
type workspace struct {
	share float64    // how far, as a share of its smaller side's target, a bisection may miss
	side  []uint8    // the bisection under refinement
	flag  []bool     // visited (growing), moved this pass (refinement)
	ver   []uint32   // bumped per requeue; a heap entry with an old one is stale
	heap  gainHeap   // refinement's candidate moves
	list  []int32    // queue, move sequence or touched list
	match []int32    // coarsening: each vertex's partner
	mark  []int32    // stamps; a side's local numbering
	acc   []float64  // coarsening: weight accumulated per stamped vertex; graph refinement: gains
	cnt   [][2]int32 // hypergraphs: each net's pins per side
	nbuf  []int32    // hypergraphs: neighbors gathered for growing
}

func newWorkspace(nv, nnets int) *workspace {
	return &workspace{
		flag:  make([]bool, nv),
		ver:   make([]uint32, nv),
		list:  make([]int32, 0, nv),
		match: make([]int32, nv),
		mark:  make([]int32, nv),
		acc:   make([]float64, nv),
		cnt:   make([][2]int32, nnets),
	}
}

func sum(w []float64) float64 {
	t := 0.0
	for _, x := range w {
		t += x
	}
	return t
}

// MLGraph partitions the graph into nparts by multilevel recursive
// bisection: heavy-edge-matching coarsening, greedy-growing initial
// bisection, and Fiduccia–Mattheyses boundary refinement during
// uncoarsening. This is the role graph partitioners (ParMETIS/Zoltan
// graph) play in the paper's workflow.
func MLGraph(g *Graph, nparts int) []int32 {
	return partition(g, newWorkspace(g.N(), 0), nparts)
}

// PHG partitions the hypergraph into nparts by multilevel recursive
// bisection minimizing the connectivity-1 cut: inner-product style
// coarsening (vertices matched with the neighbor sharing the most
// nets), greedy initial growth, and FM refinement with net-based gains.
// It is the stand-in for Zoltan's parallel hypergraph partitioner used
// as test T0 in the paper.
func PHG(h *Hypergraph, nparts int) []int32 {
	return partition(h, newWorkspace(h.NV(), h.NN()), nparts)
}

func partition[M model[M]](m M, ws *workspace, nparts int) []int32 {
	if nparts < 1 {
		panic(fmt.Sprintf("zpart: nparts = %d", nparts))
	}
	levels := bits.Len(uint(nparts - 1)) // ⌈log₂ nparts⌉
	ws.share = math.Pow(1+imbalanceTarget, 1/float64(max(levels, 1))) - 1
	out := make([]int32, len(m.vwt()))
	ids := make([]int32, len(out))
	for i := range ids {
		ids[i] = int32(i)
	}
	recurse(m, ws, ids, 0, nparts, out)
	return out
}

// recurse assigns parts base..base+k-1 to m's vertices, whose positions
// in out are ids: it bisects m into k/2 and k-k/2 parts' worth of weight
// and recurses into each side.
func recurse[M model[M]](m M, ws *workspace, ids []int32, base, k int, out []int32) {
	if k == 1 {
		for _, id := range ids {
			out[id] = int32(base)
		}
		return
	}
	kl := k / 2
	side := bisect(m, ws, float64(kl)/float64(k))
	for s, ks := range [2]int{kl, k - kl} {
		if ks == 1 { // a leaf needs no model of its own
			for v, id := range ids {
				if side[v] == uint8(s) {
					out[id] = int32(base + s*kl)
				}
			}
			continue
		}
		sm, sids := m.sub(side, uint8(s), ws)
		for i, v := range sids {
			sids[i] = ids[v]
		}
		recurse(sm, ws, sids, base+s*kl, ks, out)
	}
}

// bisect returns a 0/1 side assignment with ~leftFrac of the vertex
// weight on side 0: coarsen until small, grow an initial bisection,
// refine it at every level on the way back up.
func bisect[M model[M]](m M, ws *workspace, leftFrac float64) []uint8 {
	n := len(m.vwt())
	if n > coarsenTarget {
		// A matching that removes under a tenth of the vertices has
		// stalled (e.g. star graphs); bisect this level directly.
		if cm, coarseOf := m.coarsen(ws); len(cm.vwt()) < n*9/10 {
			cp := bisect(cm, ws, leftFrac)
			p := make([]uint8, n)
			for v := range p {
				p[v] = cp[coarseOf[v]]
			}
			refine(m, ws, p, leftFrac, 4)
			return p
		}
	}
	var best []uint8
	bestCut := math.Inf(1)
	for try := range growTries {
		p := greedyGrow(m, ws, leftFrac, try)
		refine(m, ws, p, leftFrac, 8)
		if c := m.cut(p); c < bestCut {
			best, bestCut = p, c
		}
	}
	return best
}

// greedyGrow grows side 0 breadth-first until it holds ~leftFrac of the
// weight, from a vertex spread evenly over the numbering by try.
func greedyGrow[M model[M]](m M, ws *workspace, leftFrac float64, try int) []uint8 {
	vwt := m.vwt()
	p := make([]uint8, len(vwt))
	for i := range p {
		p[i] = 1
	}
	if len(p) == 0 {
		return p
	}
	target := sum(vwt) * leftFrac
	seed := int32(try * len(p) / growTries)
	visited := ws.flag[:len(p)]
	clear(visited)
	visited[seed] = true
	queue := append(ws.list[:0], seed)
	acc := 0.0
	for head := 0; head < len(queue) && acc < target; head++ {
		v := queue[head]
		p[v] = 0
		acc += vwt[v]
		ws.nbuf = m.neighbors(v, ws.nbuf[:0])
		for _, u := range ws.nbuf {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
		if head+1 == len(queue) {
			// Disconnected: restart from the first unvisited vertex.
			for u, seen := range visited {
				if !seen {
					visited[u] = true
					queue = append(queue, int32(u))
					break
				}
			}
		}
	}
	return p
}

// gainItem is a candidate move: v, its gain when queued, and v's version
// at that moment.
type gainItem struct {
	gain float64
	v    int32
	ver  uint32
}

// gainHeap is a max-heap on gain. push and pop sift exactly as
// container/heap's Push and Pop do, so equal gains leave in the order
// they always have: which of two tied moves goes first decides the
// partition.
type gainHeap []gainItem

func (h *gainHeap) push(it gainItem) {
	s := append(*h, it)
	*h = s
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].gain > s[i].gain) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *gainHeap) pop() gainItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j+1 < n && s[j+1].gain > s[j].gain {
			j++
		}
		if !(s[j].gain > s[i].gain) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// requeue queues a fresh candidate for u at its new gain and so makes
// u's older entries stale.
func (ws *workspace) requeue(u int32, gain float64) {
	ws.ver[u]++
	ws.heap.push(gainItem{gain, u, ws.ver[u]})
}

// refine improves the bisection p in place with Fiduccia–Mattheyses
// passes: vertices move to the other side in descending gain order (each
// at most once per pass) while side 0's weight stays in a band around
// its target, or, from outside the band, only if the move shrinks the
// excess. Of the move sequence it keeps the prefix with the least
// excess, and among those the one with the most gain.
func refine[M model[M]](m M, ws *workspace, p []uint8, leftFrac float64, passes int) {
	vwt := m.vwt()
	total := sum(vwt)
	target := total * leftFrac
	// The band: ws.share of the smaller side's target, or the largest
	// vertex, whichever is bigger (otherwise single heavy vertices jam).
	tol := min(target, total-target) * ws.share
	leftW := 0.0
	for v, w := range vwt {
		tol = max(tol, w)
		if p[v] == 0 {
			leftW += w
		}
	}
	excess := func(left float64) float64 { return max(0, math.Abs(left-target)-tol) }
	ws.side = p
	moved := ws.flag[:len(p)]
	for pass := 0; pass < passes; pass++ {
		m.beginPass(ws)
		clear(moved)
		ws.heap = ws.heap[:0]
		for v := range int32(len(p)) {
			if gain, boundary := m.gain(v, ws); boundary {
				ws.heap.push(gainItem{gain, v, ws.ver[v]})
			}
		}
		seq := ws.list[:0]
		cur := excess(leftW)
		cum, best, bestEx := 0.0, 0.0, cur
		bestLen := 0
		for len(ws.heap) > 0 {
			it := ws.heap.pop()
			if moved[it.v] || it.ver != ws.ver[it.v] {
				continue
			}
			newLeft := leftW + vwt[it.v]
			if p[it.v] == 0 {
				newLeft = leftW - vwt[it.v]
			}
			ex := excess(newLeft)
			if ex > 0 && ex >= cur {
				continue
			}
			p[it.v] ^= 1
			leftW, cur = newLeft, ex
			moved[it.v] = true
			seq = append(seq, it.v)
			cum += it.gain
			if ex < bestEx || ex == bestEx && cum > best {
				best, bestEx = cum, ex
				bestLen = len(seq)
			}
			m.moved(it.v, ws)
			if len(seq)-bestLen > 200 {
				break // long negative tail; stop early
			}
		}
		// Roll back past the best prefix.
		for i := len(seq) - 1; i >= bestLen; i-- {
			v := seq[i]
			if p[v] == 0 {
				leftW -= vwt[v]
			} else {
				leftW += vwt[v]
			}
			p[v] ^= 1
		}
		if bestLen == 0 {
			break
		}
	}
}

// sideVertices lists the vertices on one side of a bisection and, in
// ws.mark, maps every vertex to its position in that list or -1.
func sideVertices(part []uint8, side uint8, ws *workspace) (ids, local []int32) {
	n := 0
	for _, s := range part {
		if s == side {
			n++
		}
	}
	ids = make([]int32, 0, n)
	local = ws.mark[:len(part)]
	for v, s := range part {
		local[v] = -1
		if s == side {
			local[v] = int32(len(ids))
			ids = append(ids, int32(v))
		}
	}
	return ids, local
}
