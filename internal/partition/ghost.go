package partition

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Ghosting localizes read-only copies of off-part elements adjacent to
// the part boundary, so that computations needing neighbor data (e.g.
// finite-volume gradients) avoid per-iteration communication. A ghost
// is a duplicated, read-only, off-part entity copy; ghosts do not enter
// residence sets or part boundaries, and are excluded from load
// statistics.

// Ghost adds `layers` layers of ghost elements to every part
// (collective). Bridge entities of dimension bridgeDim define
// adjacency: every element within `layers` bridge-adjacency steps of an
// entity shared with part q is copied to q. Newly created entities are
// flagged as ghosts; entities the receiver already holds are untouched.
// Element ghosts record their home part for tag synchronization.
func Ghost(dm *DMesh, bridgeDim, layers int) {
	defer dm.Ctx.Span("partition.ghost").End()
	if bridgeDim < 0 || bridgeDim >= dm.Dim {
		panic(fmt.Sprintf("partition: bad ghost bridge dimension %d", bridgeDim))
	}
	if layers < 1 {
		panic(fmt.Sprintf("partition: bad ghost layer count %d", layers))
	}
	ph := dm.beginPhase()
	ships := planGhosts(ph, bridgeDim, layers)
	writeGhosts(ph, ships)
	receiveGhosts(dm, ph.exchange())
	sendLinks(ph)
	receiveLinks(dm, ph.exchange())
	// ghostsOf/ghostHome changed without a mesh mutation on the sending
	// side, so the epoch vector alone cannot catch it: drop the plan.
	delete(dm.plans, ghostKey)
}

// ghostShip is one local part's share of Ghost's element shipment: a
// run per part it shares bridge entities with, in ascending order.
type ghostShip struct {
	movable []*ds.Tag // the tags whose values ship
	runs    []ghostRun
}

type ghostRun struct {
	to      int32
	els     []uint64 // to<<32 | element, ascending
	closure []uint32 // the elements' downward closure, ascending
}

// planGhosts collects every local part's runs and counts their messages
// into the phase. One mark set per part serves the layer walks and the
// closure walks of all its runs, cleared through the lists it marked.
func planGhosts(ph *phase, bridgeDim, layers int) []ghostShip {
	d := ph.dm.Dim
	ships := make([]ghostShip, len(ph.dm.Parts))
	var adj []mesh.Ent // adjacency scratch
	var peers []int32  // remote-part scratch
	for li, part := range ph.dm.Parts {
		m := part.M
		// Seed: for each neighbor part q, the elements adjacent to
		// entities shared with q, as q<<32 | element: sorted, a run per
		// neighbor, as a migration's moves. (A shared entity always has
		// a non-ghost element beside it, so no neighbor's run is empty.)
		var seeds []uint64
		for e := range m.PartBoundary(bridgeDim) {
			adj = m.AdjacentTo(e, d, adj[:0])
			peers = m.AppendRemoteParts(e, peers[:0])
			for _, q := range peers {
				for _, el := range adj {
					if !m.IsGhost(el) {
						seeds = append(seeds, uint64(q)<<32|uint64(el.Pack()))
					}
				}
			}
		}
		slices.Sort(seeds)
		seeds = slices.Compact(seeds)
		mk := m.NewMarks()
		var runs []ghostRun
		bound := 0
		for lo := 0; lo < len(seeds); {
			q, hi := destRun(seeds, lo)
			els := seeds[lo:hi:hi]
			if layers > 1 {
				els = addLayers(m, &mk, slices.Clone(els), q, bridgeDim, layers)
			}
			runs = append(runs, ghostRun{to: q, els: els})
			bound += closureBound(m, els, d)
			lo = hi
		}
		closure := make([]uint32, 0, bound)
		var one [32]uint32 // one element's closure: at most 8 + 12 + 6 entities
		movable := movableTags(m)
		for i := range runs {
			r := &runs[i]
			at := len(closure)
			for _, w := range r.els {
				for _, c := range m.ClosureTo(moveEnt(w), one[:0]) {
					if mk.Set(mesh.UnpackEnt(c)) {
						closure = append(closure, c)
					}
				}
			}
			r.closure = closure[at:]
			slices.Sort(r.closure)
			size := headerBytes(movable, d)
			for _, w := range r.closure {
				e := mesh.UnpackEnt(w)
				mk.Clear(e)
				size += recordSize(m, movable, e, 4)
			}
			for _, w := range r.els {
				size += recordSize(m, movable, moveEnt(w), 4) + 5
			}
			ph.count(m.Part(), r.to, size)
		}
		ships[li] = ghostShip{movable: movable, runs: runs}
	}
	return ships
}

// addLayers grows a run's seed elements by layers-1 steps of bridge
// adjacency, breadth first: each layer's frontier is what the previous
// one appended. It returns the run ascending, and mk as it found it.
func addLayers(m *mesh.Mesh, mk *mesh.Marks, els []uint64, q int32, bridgeDim, layers int) []uint64 {
	for _, w := range els {
		mk.Set(moveEnt(w))
	}
	var adj []mesh.Ent
	for l, lo := 1, 0; l < layers; l++ {
		hi := len(els)
		for _, w := range els[lo:hi] {
			adj = m.BridgeAdjacentTo(moveEnt(w), bridgeDim, m.Dim(), adj[:0])
			for _, nb := range adj {
				if !m.IsGhost(nb) && mk.Set(nb) {
					els = append(els, uint64(q)<<32|uint64(nb.Pack()))
				}
			}
		}
		lo = hi
	}
	slices.Sort(els)
	for _, w := range els {
		mk.Clear(moveEnt(w))
	}
	return els
}

// writeGhosts packs each run as a migration's records, with the owner
// where the residence goes and, after each element, the sender's handle
// for the back link.
func writeGhosts(ph *phase, ships []ghostShip) {
	for li, part := range ph.dm.Parts {
		m, sh := part.M, &ships[li]
		for _, r := range sh.runs {
			b := ph.to(m.Part(), r.to)
			packRecords(b, part, ph.dm.Dim, sh.movable, r.closure, r.els,
				func(e mesh.Ent) { b.Int32(m.Owner(e)) },
				func(el mesh.Ent) {
					b.Byte(byte(el.T))
					b.Int32(el.I)
				})
		}
	}
}

// ghostArrival is an element ghost created on a part, and its home.
type ghostArrival struct {
	e    mesh.Ent
	home mesh.RemoteCopyRef
}

// receiveGhosts unpacks the shipment, sorted by (To, From), part by
// part, and enters the elements it created in the part's ghostHome,
// made once at its new size.
func receiveGhosts(dm *DMesh, msgs []partMsg) {
	var arrived []ghostArrival
	for _, part := range dm.Parts {
		arrived = arrived[:0]
		for ; len(msgs) > 0 && msgs[0].To == part.M.Part(); msgs = msgs[1:] {
			arrived = unpackGhosts(dm, part, &msgs[0], arrived)
		}
		if len(arrived) == 0 {
			continue
		}
		home := make(map[mesh.Ent]mesh.RemoteCopyRef, len(part.ghostHome)+len(arrived))
		maps.Copy(home, part.ghostHome)
		for _, a := range arrived {
			home[a.e] = a.home
		}
		part.ghostHome = home
	}
}

func unpackGhosts(dm *DMesh, part *Part, msg *partMsg, arrived []ghostArrival) []ghostArrival {
	m, r := part.M, &msg.Data
	var owner int32
	unpackRecords(part, r, dm.Dim, false,
		func() { owner = r.Int32() },
		func(e mesh.Ent, created bool) {
			if created {
				m.SetGhost(e, true)
				m.SetOwner(e, owner)
				part.nGhosts++
			}
			if e.Dim() == dm.Dim {
				home := mesh.Ent{T: mesh.Type(r.Byte()), I: r.Int32()}
				if created {
					arrived = append(arrived, ghostArrival{e, mesh.RemoteCopyRef{Part: msg.From, Ent: home}})
				}
			}
		})
	return arrived
}

// sendLinks packs the back links: each receiver tells the sender where
// its element ghosts live, so owners can push tag data. Every ghost a
// part holds, from this call or an earlier one, sends its link: the
// links a part receives are its whole ghostsOf. Each part's ghosts sort
// into a run per home part, home<<32 | ghost, of 10-byte records.
func sendLinks(ph *phase) {
	links := make([][]uint64, len(ph.dm.Parts))
	for li, part := range ph.dm.Parts {
		keys := make([]uint64, 0, len(part.ghostHome))
		for g, home := range part.ghostHome {
			keys = append(keys, uint64(home.Part)<<32|uint64(g.Pack()))
		}
		slices.Sort(keys)
		links[li] = keys
	}
	for _, packing := range [2]bool{false, true} {
		for li, part := range ph.dm.Parts {
			keys := links[li]
			for lo := 0; lo < len(keys); {
				q, hi := destRun(keys, lo)
				if !packing {
					ph.count(part.M.Part(), q, 10*(hi-lo))
					lo = hi
					continue
				}
				for b := ph.to(part.M.Part(), q); lo < hi; lo++ {
					g := moveEnt(keys[lo])
					home := part.ghostHome[g].Ent
					b.Byte(byte(home.T))
					b.Int32(home.I)
					b.Byte(byte(g.T))
					b.Int32(g.I)
				}
			}
		}
	}
}

// receiveLinks rebuilds every local part's ghostsOf from the back links
// it received, sorted by (To, From) like dm.Parts.
func receiveLinks(dm *DMesh, msgs []partMsg) {
	var links [][2]uint64 // per back link: element<<32 | the ghost's part, the ghost's handle
	for _, part := range dm.Parts {
		links = links[:0]
		for ; len(msgs) > 0 && msgs[0].To == part.M.Part(); msgs = msgs[1:] {
			for r := &msgs[0].Data; !r.Empty(); {
				mine := mesh.Ent{T: mesh.Type(r.Byte()), I: r.Int32()}
				ghost := mesh.Ent{T: mesh.Type(r.Byte()), I: r.Int32()}
				links = append(links, [2]uint64{uint64(mine.Pack())<<32 | uint64(msgs[0].From), uint64(ghost.Pack())})
			}
		}
		part.setGhostsOf(links)
	}
}

// setGhostsOf rebuilds ghostsOf from the part's back links, sorted once
// by element and then part: one run of copies per element, all runs in
// one array.
func (p *Part) setGhostsOf(links [][2]uint64) {
	slices.SortFunc(links, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	p.ghostsOf = make(map[mesh.Ent][]mesh.RemoteCopyRef, len(links))
	refs := make([]mesh.RemoteCopyRef, len(links))
	for i, l := range links {
		refs[i] = mesh.RemoteCopyRef{Part: int32(uint32(l[0])), Ent: mesh.UnpackEnt(uint32(l[1]))}
	}
	for lo, hi := 0, 0; lo < len(links); lo = hi {
		for hi = lo + 1; hi < len(links) && links[hi][0]>>32 == links[lo][0]>>32; hi++ {
		}
		p.ghostsOf[mesh.UnpackEnt(uint32(links[lo][0]>>32))] = refs[lo:hi:hi]
	}
}

// RemoveGhosts deletes every ghost entity from all local parts
// (collective only in that all ranks typically do it together; purely
// local otherwise).
func RemoveGhosts(dm *DMesh) {
	defer dm.Ctx.Span("partition.unghost").End()
	// Ghosts are owned by their home part; destroying the local copies
	// is how ghosting ends, so sanctioned for the sanitizer.
	defer dm.suspendGuards()()
	most := 0
	for _, part := range dm.Parts {
		most = max(most, part.nGhosts)
	}
	doomed := make([]mesh.Ent, 0, most)
	for _, part := range dm.Parts {
		m := part.M
		// Elements first, then orphaned lower ghosts, each dimension in
		// handle order (Iter's).
		for dd := dm.Dim; dd >= 0; dd-- {
			doomed = doomed[:0]
			for e := range m.Iter(dd) {
				if m.IsGhost(e) && !m.HasUp(e) {
					doomed = append(doomed, e)
				}
			}
			for _, e := range doomed {
				m.Destroy(e)
			}
		}
		part.nGhosts = 0
		part.ghostHome = nil
		part.ghostsOf = nil
	}
	delete(dm.plans, ghostKey)
}

// SyncGhostFloatTag pushes the owner's float tag values on elements to
// all their ghost copies (collective). The tag must exist on every part
// under the same name; a part without it sends nothing and drops what
// it receives. Runs on the cached ghost plan: per element a presence
// byte, then the value when present, read from and stored into the
// tag's column a run at a time.
func SyncGhostFloatTag(dm *DMesh, name string) {
	defer dm.Ctx.Span("partition.ghost.sync").End()
	pl := dm.plan(ghostKey)
	// Applying the owner's values onto ghost copies is the sanctioned
	// owner-to-copy direction.
	defer dm.suspendGuards()()
	dm.execPlan(pl, planCodec{
		sends: func(p *Part) bool { return p.M.Tags.Find(name) != nil },
		pack:  func(p *Part, run []mesh.Ent, b *pcu.Buffer) { packFloats(p.M.Tags, p.M.Tags.Find(name), run, b) },
		apply: func(p *Part, run []mesh.Ent, r *pcu.Reader) { applyFloats(p.M.Tags, p.M.Tags.Find(name), run, r) },
	})
}

// packFloats writes one run of a float tag, looking its column up once
// per entity type.
func packFloats(tags *ds.TagTable[mesh.Ent], tag *ds.Tag, run []mesh.Ent, b *pcu.Buffer) {
	var f []float64
	var bits []uint64
	for i, e := range run {
		if i == 0 || e.T != run[i-1].T {
			f, bits, _ = tags.FloatColumn(tag, int(e.T))
		}
		if s := uint(e.I); s>>6 < uint(len(bits)) && bits[s>>6]&(1<<(s&63)) != 0 {
			b.Byte(1)
			b.Float64(f[s])
		} else {
			b.Byte(0)
		}
	}
}

// applyFloats stores one run of a float tag decoded from one view of r;
// an absent value leaves the element as it was, and a nil tag drops the
// run. The write guard sees the run once: inside the sanctioned window
// its only check, goroutine confinement, has one verdict for the run.
func applyFloats(tags *ds.TagTable[mesh.Ent], tag *ds.Tag, run []mesh.Ent, r *pcu.Reader) {
	if tag != nil && tags.OnSet != nil {
		tags.OnSet(run[0])
	}
	v, at := r.Advance(0), 0
	var f []float64
	var bits []uint64
	var count *int
	t := mesh.TypeCount // the type whose column f, bits and count are
	for _, e := range run {
		n := 1
		if at < len(v) && v[at] != 0 {
			n = 9
		}
		if at+n > len(v) {
			r.Advance(at + n) // panics: the run is cut short
		}
		at += n
		if n == 1 || tag == nil {
			continue
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(v[at-8:]))
		if e.T != t {
			t = e.T
			f, bits, count = tags.FloatColumn(tag, int(t))
		}
		s := uint(e.I)
		if s>>6 >= uint(len(bits)) {
			tags.SetFloat(tag, e, x) // grows the column; look it up again
			t = mesh.TypeCount
			continue
		}
		f[s] = x
		if bit := uint64(1) << (s & 63); bits[s>>6]&bit == 0 {
			bits[s>>6] |= bit
			*count++
		}
	}
	r.Advance(at)
}

func readClassif(r *pcu.Reader) (c gmi.Ref) {
	c.Dim = int8(r.Byte()) - 1
	c.Tag = r.Int32()
	return c
}

// NGhosts returns the number of ghost entities currently on the part.
func (p *Part) NGhosts() int { return p.nGhosts }

// GhostHome returns the home copy of a ghost element, if recorded.
func (p *Part) GhostHome(e mesh.Ent) (mesh.RemoteCopyRef, bool) {
	h, ok := p.ghostHome[e]
	return h, ok
}

// GhostCopies returns where an element of this part is ghosted, sorted
// by part.
func (p *Part) GhostCopies(e mesh.Ent) []mesh.RemoteCopyRef { return p.ghostsOf[e] }
