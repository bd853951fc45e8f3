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
	"github.com/fastmath/pumi-go/internal/telemetry"
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

	// Ghost bookkeeping: local ghost element -> its home copy, and
	// local element -> its ghost copies on other parts.
	nGhosts   int
	ghostHome map[mesh.Ent]mesh.RemoteCopyRef
	ghostsOf  map[mesh.Ent][]mesh.RemoteCopyRef
}

func newPart(m *mesh.Mesh) *Part {
	p := &Part{
		M:         m,
		ghostHome: map[mesh.Ent]mesh.RemoteCopyRef{},
		ghostsOf:  map[mesh.Ent][]mesh.RemoteCopyRef{},
	}
	for t := range p.gids {
		p.reserve(mesh.Type(t), 0) // an adopted or restored mesh: one gid per slot it has
	}
	m.OnDestroy(func(e mesh.Ent) { p.dropGid(e) })
	m.OnCreate(func(e mesh.Ent) { p.setGid(e, p.freshGid()) })
	if san.Enabled() {
		m.SetGuard(san.NewMeshGuard())
	}
	return p
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

// reserve makes room for n more type-t entities in the mesh and gid column.
func (p *Part) reserve(t mesh.Type, n int) {
	slots := p.M.Reserve(t, n)
	p.gids[t] = slices.Grow(p.gids[t], max(0, slots-len(p.gids[t])))
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
	// parts' topology epochs, plus the scratch the planned execution
	// path reuses so steady-state rounds do not allocate.
	plans     map[dimsKey]*BoundaryPlan
	ghostPlan *ghostSyncPlan
	payload   pcu.Buffer
	sub       pcu.Reader

	// execNs is the plan-execution latency series, resolved lazily on
	// the first metered execPlan round and nil for unmetered runs, so
	// the steady-state path pays two nil checks and no mutex.
	execNs *telemetry.Histogram

	// nbRanks caches NeighborRanks against the parts' epochs.
	nbRanks    []int
	nbEpochs   []uint64
	nbRanksSet bool

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

// Meshes returns the local part meshes in part order — the argument
// list for mesh.VerifyParallel.
func (dm *DMesh) Meshes() []*mesh.Mesh {
	ms := make([]*mesh.Mesh, len(dm.Parts))
	for i, p := range dm.Parts {
		ms[i] = p.M
	}
	return ms
}

// Verify runs the full distributed verification (collective): the
// gid-based checks of CheckDistributed plus the link-symmetry
// VerifyParallel of the mesh layer. Both exchange the remote-copy links
// — one checks them against global ids and the compiled plans, the other
// against ghosts and closures — but the local sweep they share runs once
// per part, in VerifyParallel. Parallel test paths end with this.
func Verify(dm *DMesh) error {
	if err := checkDistributed(dm, false); err != nil {
		return err
	}
	return mesh.VerifyParallel(dm.Ctx, dm.Meshes()...)
}

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

// partWriter accumulates one part-to-part payload.
type partWriter struct {
	from, to int32
	buf      pcu.Buffer
}

// phase batches part-to-part messages. One phase serves every exchange
// of a call: a pair's writer, once made, stays in writers — sorted by
// (from, to), the order exchange sends in — and the call's later
// exchanges pack into the same array. Nothing outlives the call.
type phase struct {
	dm      *DMesh
	writers []*partWriter
	// need is, per destination rank, the bytes the next exchange is known
	// to send there; rankBuf reserves them at the first write.
	need []int
}

// beginPhase starts the part-addressed communication of one call.
func (dm *DMesh) beginPhase() *phase {
	return &phase{dm: dm, need: make([]int, dm.Ctx.Size())}
}

// to returns the buffer for messages from one local part to any part
// (local or remote) in the next exchange; a pair nothing is packed for
// sends nothing.
func (ph *phase) to(fromPart, toPart int32) *pcu.Buffer {
	i, ok := slices.BinarySearchFunc(ph.writers, [2]int32{fromPart, toPart},
		func(w *partWriter, k [2]int32) int {
			return cmp.Or(cmp.Compare(w.from, k[0]), cmp.Compare(w.to, k[1]))
		})
	if !ok {
		ph.writers = slices.Insert(ph.writers, i, &partWriter{from: fromPart, to: toPart})
	}
	return &ph.writers[i].buf
}

// rankBuf returns the next exchange's buffer to rank r, reserved on
// first use at need[r]. A bulk sender adds its messages to need — a
// 12-byte (from, to, length) header each, then the payload — and writes
// them here itself, not through a pair buffer that exchange would copy.
func (ph *phase) rankBuf(r int) *pcu.Buffer {
	b := ph.dm.Ctx.To(r)
	b.Grow(ph.need[r])
	ph.need[r] = 0
	return b
}

// partMsg is one received part-to-part payload.
type partMsg struct {
	From, To int32
	Data     *pcu.Reader
}

// exchange delivers the messages packed since the last exchange and
// returns those addressed to this rank's parts, sorted by (To, From);
// the phase is then ready for the next round. Collective across ranks.
//
// Each rank buffer is reserved once, at the sum of its pairs' 12-byte
// headers and payloads plus what was written to it directly (rankBuf).
// The rank-level Messages are deliberately never
// Done: that would park their arrays in Ctx's free list, which after a
// bulk migration pins about 2.5 MB per rank (+160 B live per element on
// repartition-vessel16). The returned payloads alias them.
func (ph *phase) exchange() []partMsg {
	dm := ph.dm
	for _, w := range ph.writers {
		if w.buf.Len() > 0 {
			ph.need[dm.RankOf(w.to)] += 12 + w.buf.Len()
		}
	}
	for _, w := range ph.writers {
		if w.buf.Len() == 0 {
			continue
		}
		b := ph.rankBuf(dm.RankOf(w.to))
		b.Int32(w.from)
		b.Int32(w.to)
		b.Bytes(w.buf.Raw())
		w.buf.Reset()
	}
	var out []partMsg
	for _, m := range dm.Ctx.Exchange() {
		for !m.Data.Empty() {
			from := m.Data.Int32()
			to := m.Data.Int32()
			payload := m.Data.BytesVal()
			out = append(out, partMsg{From: from, To: to, Data: pcu.NewReader(payload)})
		}
	}
	slices.SortStableFunc(out, func(a, b partMsg) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.From, b.From))
	})
	return out
}
