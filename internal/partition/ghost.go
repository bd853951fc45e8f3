package partition

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Ghosting localizes read-only copies of off-part elements adjacent to
// the part boundary, so that computations needing neighbor data (e.g.
// finite-volume gradients) avoid per-iteration communication. A ghost
// is a duplicated, read-only, off-part entity copy owned by its home
// part; ghosts do not enter residence sets or part boundaries, and are
// excluded from load statistics. A ghost element and its home link to
// each other in the mesh's link store, as part-boundary copies do.

// Ghost adds `layers` layers of ghost elements to every part
// (collective). Bridge entities of dimension bridgeDim define
// adjacency: every element within `layers` bridge-adjacency steps of an
// entity shared with part q is copied to q. Newly created entities are
// flagged as ghosts; entities the receiver already holds are untouched.
// Each element ghost created links to its home copy, and the home back,
// by the stitch records migration uses: two rounds in all.
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
	created := receiveGhosts(dm, ph.exchange())
	for _, packing := range [2]bool{false, true} {
		for li, part := range dm.Parts {
			for _, g := range created[li] {
				ph.stitch(part, g, []int32{part.M.Owner(g)}, packing)
			}
		}
	}
	ph.applyStitches()
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
		movable, err := movableTags(m)
		if err != nil {
			panic(err)
		}
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
			packRecords(b, part, ph.dm.Dim, sh.movable, r.closure, r.els, nil,
				func(e mesh.Ent) { b.Int32(m.Owner(e)) },
				func(el mesh.Ent) {
					b.Byte(byte(el.T))
					b.Int32(el.I)
				})
		}
	}
}

// receiveGhosts unpacks the shipment and returns the element ghosts
// each local part created. An element ghost links to its home copy,
// whose handle follows the element's record, while it is still this
// part's own, before it becomes a ghost of its home's owner.
func receiveGhosts(dm *DMesh, msgs []partMsg) [][]mesh.Ent {
	created := make([][]mesh.Ent, len(dm.Parts))
	var ld landing
	for i := range msgs {
		li, r := dm.localIndex(msgs[i].To), &msgs[i].Data
		part := dm.Parts[li]
		var owner int32
		ld = unpackRecords(part, r, dm.Dim, ld,
			func(t mesh.Type, n int) { // size the list once per message
				if t.Dim() == dm.Dim {
					created[li] = slices.Grow(created[li], n)
				}
			},
			func() { owner = r.Int32() },
			func(e mesh.Ent, isNew bool) {
				if e.Dim() == dm.Dim {
					home := mesh.Ent{T: mesh.Type(r.Byte()), I: r.Int32()}
					if isNew {
						part.M.SetRemote(e, owner, home)
						created[li] = append(created[li], e)
					}
				}
				if isNew {
					part.M.SetGhost(e, owner)
					part.nGhosts++
				}
			})
	}
	return created
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
		// The boundary table holds every ghost and home element. Element
		// ghosts go first, with the homes' links to them, then orphaned
		// lower ghosts, each dimension in handle order (Iter's), so that
		// the handles that stay do not move.
		for dd := dm.Dim; dd >= 0; dd-- {
			doomed = doomed[:0]
			for e := range m.BoundaryTable(dd) {
				if dd == dm.Dim || m.IsGhost(e) && !m.HasUp(e) {
					doomed = append(doomed, e)
				}
			}
			for _, e := range doomed {
				if m.IsGhost(e) {
					m.Destroy(e)
				} else {
					m.ClearRemotes(e)
				}
			}
		}
		part.nGhosts = 0
	}
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

// NGhosts returns the number of ghost entities currently on the part.
func (p *Part) NGhosts() int { return p.nGhosts }

// GhostHome returns the home copy of a ghost element: its link to its
// owner.
func (p *Part) GhostHome(e mesh.Ent) (mesh.RemoteCopyRef, bool) {
	owner := p.M.Owner(e)
	h, ok := p.M.RemoteCopy(e, owner)
	return mesh.RemoteCopyRef{Part: owner, Ent: h}, ok && p.M.IsGhost(e)
}

// GhostCopies returns where an element of this part is ghosted, sorted
// by part: its links; nil when there are none.
func (p *Part) GhostCopies(e mesh.Ent) []mesh.RemoteCopyRef {
	var out []mesh.RemoteCopyRef
	if e.Dim() == p.M.Dim() && !p.M.IsGhost(e) {
		p.M.EachRemote(e, func(q int32, h mesh.Ent) bool {
			out = append(out, mesh.RemoteCopyRef{Part: q, Ent: h})
			return true
		})
	}
	return out
}
