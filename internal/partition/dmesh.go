// Package partition implements PUMI's distributed mesh: parts assigned
// to processes, part-boundary entities duplicated across parts with
// remote-copy links, the partition model classifying boundary entities
// by residence part set, and the distributed manipulation services built
// on them — mesh migration, ghosting, multiple parts per process, and
// distributed verification.
//
// Entity identity across parts is tracked with 64-bit global ids
// maintained by this layer through mesh lifecycle hooks; migration and
// ghosting stitch remote copies by global id. Ids of entities created
// after initial numbering embed the creating part, so they stay unique
// without communication.
package partition

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/san"
)

// freshGidBase is the bit position above which part-scoped id ranges
// live: initial serial numbering stays below 1<<freshGidBase.
const freshGidBase = 40

// Part is one mesh part plus the bookkeeping the distribution layer
// needs: global ids per entity and the reverse index, one per dimension
// and keyed by the gid column itself (gidindex.go).
type Part struct {
	M *mesh.Mesh

	gids    gidColumns
	byGid   [4]gidIndex
	counter int64

	// resIdx is TryMigrate's entity slot -> affected-list index
	// (resTable.idx, migrate.go); all zero between calls.
	resIdx [mesh.TypeCount][]int32

	// nGhosts counts the part's ghost entities; their links to their
	// home copies live in the mesh's link store (ghost.go).
	nGhosts int
}

func newPart(m *mesh.Mesh) *Part {
	p := &Part{M: m}
	for t := range p.gids { // an adopted mesh: one gid per slot it has
		p.gids[t] = slices.Grow(p.gids[t], m.Reserve(mesh.Type(t), 0))
	}
	p.attach()
	return p
}

// attach hooks the part's gid bookkeeping, and the sanitizer's guard,
// into its mesh: from here every entity created gets a fresh gid. A
// part being loaded attaches once its entities and gids are in.
func (p *Part) attach() {
	p.M.OnDestroy(func(e mesh.Ent) { p.dropGid(e) })
	p.M.OnCreate(func(e mesh.Ent) { p.setGid(e, p.freshGid()) })
	if san.Enabled() {
		p.M.SetGuard(san.NewMeshGuard())
	}
}

// suspendGuards opens a pumi-san sanctioned-write window on every local
// part and returns the closer. The distributed protocols (migration
// commit, checkpoint restitching, owner-to-copy synchronization) use it
// around the steps that legitimately write to entities the writing part
// does not own.
// The resume functions collect into a slice reused across calls, and
// the returned closer is built once, so the steady-state hot paths
// (planned sync rounds) stay allocation-free. Windows from nested
// suspendGuards calls close in LIFO order like before, because the
// shared closer pops only the functions its own call pushed.
func (dm *DMesh) suspendGuards() func() {
	if dm.resumeAll == nil {
		dm.resumeAll = func() {
			for i := len(dm.resume) - 1; i >= len(dm.resume)-len(dm.Parts); i-- {
				dm.resume[i]()
			}
			dm.resume = dm.resume[:len(dm.resume)-len(dm.Parts)]
		}
	}
	for _, p := range dm.Parts {
		dm.resume = append(dm.resume, p.M.SuspendGuard())
	}
	return dm.resumeAll
}

// Gid returns e's global id (-1 if never assigned).
func (p *Part) Gid(e mesh.Ent) int64 {
	s := p.gids[e.T]
	if int(e.I) >= len(s) {
		return -1
	}
	return s[e.I]
}

// FindGid resolves a global id of the given dimension to the local
// entity, if this part holds a copy.
func (p *Part) FindGid(dim int, gid int64) (mesh.Ent, bool) {
	return p.byGid[dim].find(&p.gids, gid)
}

func (p *Part) setGid(e mesh.Ent, gid int64) {
	s := p.gids[e.T]
	for int(e.I) >= len(s) {
		s = append(s, -1)
	}
	p.gids[e.T] = s
	x := &p.byGid[e.Dim()]
	if s[e.I] >= 0 {
		x.remove(&p.gids, e)
	}
	s[e.I] = gid
	x.insert(&p.gids, e)
}

// reserve makes room for n more type-t entities: mesh, gids, resIdx.
func (p *Part) reserve(t mesh.Type, n int) {
	slots := p.reserveGids(t, n)
	p.resIdx[t] = slices.Grow(p.resIdx[t], max(0, slots-len(p.resIdx[t])))
}

// reserveLoad makes room for n more type-t entities on a part being
// loaded: mesh, gids and the gid index. resIdx stays empty until a
// migration needs it.
func (p *Part) reserveLoad(t mesh.Type, n int) {
	p.reserveGids(t, n)
	p.byGid[t.Dim()].reserve(&p.gids, n)
}

// reserveGids makes room for n more type-t entities in the mesh and the
// gid column, and returns the slots the room extends to.
func (p *Part) reserveGids(t mesh.Type, n int) int {
	slots := p.M.Reserve(t, n)
	p.gids[t] = slices.Grow(p.gids[t], max(0, slots-len(p.gids[t])))
	return slots
}

func (p *Part) dropGid(e mesh.Ent) {
	s := p.gids[e.T]
	if int(e.I) < len(s) && s[e.I] >= 0 {
		p.byGid[e.Dim()].remove(&p.gids, e)
		s[e.I] = -1
	}
}

// freshGid allocates a new globally unique id scoped to this part.
func (p *Part) freshGid() int64 {
	p.counter++
	return (int64(p.M.Part()+1) << freshGidBase) | p.counter
}

// assignSerialGids numbers all current entities 0..n-1 per dimension
// (used on a freshly generated serial mesh).
func (p *Part) assignSerialGids() {
	for d := 0; d <= p.M.Dim(); d++ {
		var next int64
		for e := range p.M.Iter(d) {
			p.setGid(e, next)
			next++
		}
	}
}

// DMesh is a distributed mesh: the local parts of this rank plus the
// global layout. Parts are laid out in contiguous blocks of K per rank
// (multiple parts per process), so part p lives on rank p/K.
type DMesh struct {
	Ctx   *pcu.Ctx
	Model *gmi.Model
	Dim   int
	K     int // parts per rank
	Parts []*Part

	// Compiled boundary-exchange plans (plan.go), cached against the
	// parts' topology epochs, plus the sub-reader the planned closure
	// codec reuses so steady-state rounds do not allocate.
	plans map[dimsKey]*BoundaryPlan
	sub   pcu.Reader

	// nbRanks caches NeighborRanks against the parts' epochs nbEpochs.
	nbRanks  []int
	nbEpochs []uint64

	// resume and resumeAll are suspendGuards scratch, reused per call.
	resume    []func()
	resumeAll func()
}

// New creates a distributed mesh with k empty parts on every rank.
func New(ctx *pcu.Ctx, model *gmi.Model, dim, k int) *DMesh {
	if k < 1 {
		panic(fmt.Sprintf("partition: parts per rank %d < 1", k))
	}
	dm := &DMesh{Ctx: ctx, Model: model, Dim: dim, K: k}
	for i := 0; i < k; i++ {
		m := mesh.New(model, dim)
		m.SetPart(int32(ctx.Rank()*k + i))
		dm.Parts = append(dm.Parts, newPart(m))
	}
	return dm
}

// Adopt builds a distributed mesh whose part 0 is an existing serial
// mesh and whose remaining parts start empty. Rank 0 passes the serial
// mesh (its part id is overwritten and global ids are assigned); all
// other ranks pass nil. Every rank must pass an equivalent model —
// the analytic model builders are deterministic, so each rank simply
// constructs its own instance.
func Adopt(ctx *pcu.Ctx, model *gmi.Model, dim int, serial *mesh.Mesh, k int) *DMesh {
	dm := New(ctx, model, dim, k)
	if ctx.Rank() == 0 {
		if serial == nil {
			panic("partition: rank 0 must provide the serial mesh")
		}
		serial.SetPart(0)
		p := newPart(serial)
		p.assignSerialGids()
		dm.Parts[0] = p
	}
	return dm
}

// Distribute scatters a serial mesh over all parts (collective) — the
// opening step of every workflow. Rank 0 passes the serial mesh and one
// destination part per element, in serial.Elements() order (the order
// the zpart partitioners and meshio.ReadAssignment use); what the other
// ranks pass for the two is never read, nil will do. It is Adopt
// followed by one TryMigrate, so a failure is TryMigrate's: an assignment
// of the wrong length or naming a part outside [0, NParts) returns the
// same ErrMigrateAborted on every rank, with the returned DMesh still
// holding the whole mesh on part 0, Verify-intact.
func Distribute(ctx *pcu.Ctx, model *gmi.Model, dim int, serial *mesh.Mesh, assign []int32, k int) (*DMesh, error) {
	dm := Adopt(ctx, model, dim, serial, k)
	var plans []Plan
	var localErr error
	if ctx.Rank() == 0 {
		if n := serial.Count(serial.Dim()); len(assign) != n {
			localErr = fmt.Errorf("assignment has %d entries for %d elements", len(assign), n)
		} else {
			plan := make(Plan, n)
			i := 0
			for el := range serial.Elements() {
				plan[el] = assign[i]
				i++
			}
			plans = []Plan{plan}
		}
	}
	return dm, tryMigrate(dm, plans, localErr)
}

// NParts returns the global part count.
func (dm *DMesh) NParts() int { return dm.Ctx.Size() * dm.K }

// RankOf returns the rank hosting the given part.
func (dm *DMesh) RankOf(part int32) int { return int(part) / dm.K }

// LocalPart returns the local Part with the given global part id; it
// panics if the part lives on another rank.
func (dm *DMesh) LocalPart(part int32) *Part {
	r := dm.RankOf(part)
	if r != dm.Ctx.Rank() {
		panic(fmt.Sprintf("partition: part %d lives on rank %d, not %d", part, r, dm.Ctx.Rank()))
	}
	return dm.Parts[int(part)-r*dm.K]
}

// phase lays out the part-to-part messages of one call. In each round
// every sender counts the payload bytes of each (from, to) pair, then
// packs each pair into the window to hands out, over the bytes its rank
// buffer sends: every byte is written once. Nothing outlives the call.
type phase struct {
	dm *DMesh
	// slot is, per (local part, part) pair, the payload bytes counted
	// this round; once laid out, 1 + the pair's index in wins.
	slot []int32
	wins []window
	laid bool
	need []int     // per destination rank, the bytes laid out this round
	out  []partMsg // what exchange delivered, reused round to round
}

// window is one pair's payload as laid out, its count and its slot.
type window struct {
	b       pcu.Buffer
	pair, n int32
}

// beginPhase starts the part-addressed communication of one call.
func (dm *DMesh) beginPhase() *phase {
	return &phase{dm: dm, slot: make([]int32, len(dm.Parts)*dm.NParts()), need: make([]int, dm.Ctx.Size())}
}

// count adds n payload bytes to this round's message from local part
// from to part to; a pair that counts nothing sends nothing.
func (ph *phase) count(from, to int32, n int) {
	if ph.laid {
		panic(fmt.Sprintf("partition: part %d counts for part %d after the round was laid out", from, to))
	}
	ph.slot[ph.dm.localIndex(from)*ph.dm.NParts()+int(to)] += int32(n)
}

// to returns the window the pair from, to packs exactly its count into,
// laying the round out on the round's first call.
func (ph *phase) to(from, to int32) *pcu.Buffer {
	if !ph.laid {
		ph.layout()
	}
	s := ph.slot[ph.dm.localIndex(from)*ph.dm.NParts()+int(to)]
	if s == 0 {
		panic(fmt.Sprintf("partition: part %d packs for part %d, which it counted no bytes for", from, to))
	}
	return &ph.wins[s-1].b
}

// layout reserves each destination rank's buffer once, at the sum of
// its messages, and writes their 12-byte headers (from, to, length) in
// (from, to) order, each payload's window after its header.
func (ph *phase) layout() {
	dm, np := ph.dm, ph.dm.NParts()
	pairs := 0
	for i, n := range ph.slot {
		if n > 0 {
			ph.need[dm.RankOf(int32(i%np))] += 12 + int(n)
			pairs++
		}
	}
	for r, n := range ph.need {
		if n > 0 {
			dm.Ctx.To(r).Grow(n)
		}
	}
	ph.wins = slices.Grow(ph.wins[:0], pairs)
	base := dm.Ctx.Rank() * dm.K
	for i, n := range ph.slot {
		if n <= 0 {
			continue
		}
		from, to := int32(base+i/np), int32(i%np)
		b := dm.Ctx.To(dm.RankOf(to))
		b.Int32(from)
		b.Int32(to)
		b.Int32(n)
		ph.wins = append(ph.wins, window{b: b.Window(int(n)), pair: int32(i), n: n})
		ph.slot[i] = int32(len(ph.wins))
	}
	ph.laid = true
}

// partMsg is one received part-to-part payload.
type partMsg struct {
	From, To int32
	Data     pcu.Reader
}

// phaseTap, nil outside tests, sees every exchange of every phase twice:
// laid out and packed, then delivered, with what it delivered here.
var phaseTap func(ph *phase, got []partMsg, delivered bool)

// exchange delivers the round's messages and returns those addressed to
// this rank's parts, sorted by (To, From), valid until the next exchange
// (collective). A window not holding exactly its count panics, naming
// the pair, before anything is sent.
//
// The rank-level Messages are deliberately never Done: that would park
// their arrays in Ctx's free list, which after a bulk migration pins
// about 2.5 MB per rank (+160 B live per element on
// repartition-vessel16). The returned payloads alias them: Recycle
// gives each Reader back without its array.
func (ph *phase) exchange() []partMsg {
	dm, np := ph.dm, ph.dm.NParts()
	if !ph.laid {
		ph.layout()
	}
	for _, w := range ph.wins {
		if w.b.Len() != int(w.n) {
			panic(fmt.Sprintf("partition: part %d packed %d bytes for part %d, counted %d",
				dm.Ctx.Rank()*dm.K+int(w.pair)/np, w.b.Len(), int(w.pair)%np, w.n))
		}
	}
	if phaseTap != nil {
		phaseTap(ph, nil, false)
	}
	msgs, n := dm.Ctx.Exchange(), 0 // n counts the messages: out grows once
	for _, m := range msgs {
		for r := *m.Data; !r.Empty(); n++ {
			r.Advance(8)
			r.BytesNoCopy()
		}
	}
	out := slices.Grow(ph.out[:0], n)
	for _, m := range msgs {
		for !m.Data.Empty() {
			out = append(out, partMsg{From: m.Data.Int32(), To: m.Data.Int32()})
			out[len(out)-1].Data.Reset(m.Data.BytesNoCopy())
		}
		m.Data.Recycle()
	}
	slices.SortStableFunc(out, func(a, b partMsg) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.From, b.From))
	})
	if phaseTap != nil {
		phaseTap(ph, out, true)
	}
	ph.out = out
	clear(ph.slot)
	clear(ph.need)
	ph.wins, ph.laid = ph.wins[:0], false
	return out
}
