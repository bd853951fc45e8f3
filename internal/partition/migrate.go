package partition

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

// Plan assigns elements of one part to destination parts. Elements not
// in the plan (or mapped to their own part) stay.
type Plan map[mesh.Ent]int32

// ErrMigrateAborted is wrapped by every TryMigrate abort: the migration
// was rolled back before any destructive step and the source DMesh is
// intact (it still passes Verify).
var ErrMigrateAborted = errors.New("partition: migration aborted")

// migrateLocalError marks a recoverable local validation failure inside
// a migration stage; catchStage converts it to an error for the abort
// vote instead of tearing the run down.
type migrateLocalError struct{ err error }

func (e migrateLocalError) Error() string { return e.err.Error() }

// catchStage runs f, converting recoverable local failures — corrupt
// off-node frames and staged-data validation — into a returned error.
// Teardown panics (peer failure, watchdog stall) and genuine bugs
// propagate.
func catchStage(f func()) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if le, ok := p.(migrateLocalError); ok {
			err = le.err
			return
		}
		if e, ok := p.(error); ok && errors.Is(e, pcu.ErrCorruptMessage) {
			err = e
			return
		}
		panic(p)
	}()
	f()
	return nil
}

// voteAbort is the collective go/no-go decision after a staging step:
// every rank contributes its local error (or none), and if any part of
// the world failed, every rank returns the same abort error naming all
// causes.
func voteAbort(dm *DMesh, localErr error, stage string) error {
	if causes := GatherCauses(dm.Ctx, localErr); causes != "" {
		return fmt.Errorf("%w while %s: %s", ErrMigrateAborted, stage, causes)
	}
	return nil
}

// GatherCauses returns every rank's local error, by rank, the same
// string on all of them, empty if none failed (collective). It is how a
// failure only some ranks saw — a bad plan, an unreadable checkpoint
// file — becomes the same decision everywhere: returning early from the
// failing rank alone would leave the others blocked in the schedule.
func GatherCauses(ctx *pcu.Ctx, localErr error) string {
	s := ""
	if localErr != nil {
		s = localErr.Error()
	}
	var causes []string
	for r, m := range pcu.Allgather(ctx, s) {
		if m != "" {
			causes = append(causes, fmt.Sprintf("rank %d: %s", r, m))
		}
	}
	return strings.Join(causes, "; ")
}

// rollbackCreated destroys the entities a migration staged onto each
// part, newest first so no entity is removed before its upward
// adjacencies. After rollback the mesh is exactly as before TryMigrate:
// staging only ever creates entities, it never mutates existing ones.
func rollbackCreated(parts []moving) {
	for i := range parts {
		p := &parts[i]
		for j := len(p.created) - 1; j >= 0; j-- {
			p.M.Destroy(mesh.UnpackEnt(p.created[j]))
		}
	}
}

// TryMigrate moves mesh elements between parts according to
// per-local-part plans (indexed like dm.Parts; nil entries mean no
// moves). It is collective: every rank must call it, even with empty
// plans.
//
// The procedure follows Seol's distributed mesh migration: (1) compute
// each affected entity's new residence part set by combining local
// destination contributions with those of all current remote copies;
// (2) ship moving elements with their full closures, stitching arriving
// entities to existing copies by global id; (3) remove migrated
// elements and downward entities left without local adjacency; (4)
// rebuild remote-copy links and ownership for every entity whose
// residence changed.
//
// The steps are ordered stage-validate-commit: residence staging and
// closure shipment only ever add entities, and each is followed by a
// collective abort vote. A failure before commit (a plan naming a dead
// or non-element entity or a part that does not exist, a corrupt
// off-node frame, a closure that failed validation) rolls back the
// staged entities on every rank and returns an error wrapping
// ErrMigrateAborted that names rank and cause, leaving the source DMesh
// Verify-intact. Only after the votes pass does TryMigrate destroy
// migrated elements and restitch remote links.
func TryMigrate(dm *DMesh, plans []Plan) error {
	return tryMigrate(dm, plans, nil)
}

// tryMigrate is TryMigrate with a failure this rank found before the
// call as its vote in the first abort round.
func tryMigrate(dm *DMesh, plans []Plan, localErr error) error {
	defer dm.Ctx.Span("partition.migrate").End()
	tr := dm.Ctx.Trace()
	for _, part := range dm.Parts {
		if part.nGhosts > 0 {
			panic("partition: migration with ghosts present; call RemoveGhosts first")
		}
	}
	mg := newMigration(dm)
	defer mg.reset()

	if err := voteAbort(dm, mg.stageResidence(plans, localErr), "staging residence updates"); err != nil {
		// Nothing has been created or destroyed yet; the vote is the
		// only cleanup needed.
		tr.Point("migrate.abort", 1)
		return err
	}
	tr.Point("migrate.residence-voted", 1)

	mg.planShipment()
	mg.writeShipment()
	if err := voteAbort(dm, catchStage(mg.receiveElements), "shipping element closures"); err != nil {
		rollbackCreated(mg.parts)
		tr.Point("migrate.abort", 2)
		return err
	}
	// Commit point reached: stage marks 1/2 are the abort votes passed,
	// mark 3 is the irreversible destroy-and-restitch step starting. It
	// rewrites links and ownership on entities this part does not own —
	// that is the protocol, so sanctioned for the sanitizer.
	tr.Point("migrate.commit", 3)
	defer dm.suspendGuards()()
	mg.commit()
	dm.Ctx.Count("partition.migrated-elements", mg.moved)
	tr.Point("migrate.moved-elements", mg.moved)
	return nil
}

func (dm *DMesh) localIndex(part int32) int {
	return int(part) - dm.Ctx.Rank()*dm.K
}

// migration is the state of one TryMigrate call; none of it outlives
// the call.
type migration struct {
	dm    *DMesh
	ph    *phase
	parts []moving // indexed like dm.Parts
	moved int64    // moving elements on this rank
}

func newMigration(dm *DMesh) *migration {
	mg := &migration{dm: dm, ph: dm.beginPhase(), parts: make([]moving, len(dm.Parts))}
	for i, part := range dm.Parts {
		mg.parts[i] = moving{Part: part, tab: resTable{idx: &part.resIdx}}
	}
	return mg
}

// reset returns the parts' index columns to all zero; deferred, so also
// after an abort vote or a teardown panic.
func (mg *migration) reset() {
	for i := range mg.parts {
		mg.parts[i].tab.reset()
	}
}

// moving is one local part's share of a migration. Entity lists hold
// packed handles (mesh.Ent.Pack) and are sorted as words: word order is
// handle order, dimension by dimension.
type moving struct {
	*Part
	tab resTable
	// moves is the normalized plan, destination<<32 | element, ascending:
	// a run per destination, in the order step 3 ships them.
	moves []uint64
	// closure is the downward closure of the moving elements, ascending:
	// who announces in step 2 and who may be orphaned in step 4.
	closure []uint32
	// ship holds, run after run of moves, the closure the run ships: its
	// length, then its entities ascending.
	ship     []uint32
	fresh    []mesh.Ent // shared entities first heard of in round one of step 2
	arriving int        // bound on the records step 3 delivers here
	created  []uint32   // entities step 3 created here, in creation order
	fixes    []uint64   // entities step 5 restitches: new owner<<32 | entity
}

func moveEnt(mv uint64) mesh.Ent { return mesh.UnpackEnt(uint32(mv)) }

// destRun returns the destination of moves[lo] and the end of its run.
func destRun(moves []uint64, lo int) (q int32, hi int) {
	q = int32(moves[lo] >> 32)
	for hi = lo + 1; hi < len(moves) && int32(moves[hi]>>32) == q; hi++ {
	}
	return q, hi
}

// level returns the entities of dimension dd in an ascending list.
func level(words []uint32, dd int) []uint32 {
	lo, _ := slices.BinarySearch(words, mesh.Ent{T: mesh.TypesOfDim(dd)[0]}.Pack())
	hi := len(words)
	if dd < 3 {
		hi, _ = slices.BinarySearch(words, mesh.Ent{T: mesh.TypesOfDim(dd + 1)[0]}.Pack())
	}
	return words[lo:hi]
}

// stageResidence is steps 1 and 2: it normalizes the plans and stages,
// in every part's table, the new residence of each entity the moves
// affect. A bad plan is this rank's vote to abort: the part it was found
// on, and those after it, stage and ship nothing; with localErr already
// set on entry, no part does.
func (mg *migration) stageResidence(plans []Plan, localErr error) error {
	dm, d, ph := mg.dm, mg.dm.Dim, mg.ph
	if localErr == nil && len(plans) > len(dm.Parts) {
		localErr = fmt.Errorf("%d plans for %d local parts", len(plans), len(dm.Parts))
	}

	// Step 1: local residence contributions, computed only for the
	// entities adjacent to moving elements (migration cost must scale
	// with the move, not the mesh — ParMA runs many small migrations).
	// contrib(e) = destinations of ALL local elements adjacent to e.
	var adj []mesh.Ent // adjacency scratch, reused across entities
	contribute := func(t *resTable, m *mesh.Mesh, e mesh.Ent) {
		adj = m.AdjacentTo(e, d, adj[:0])
		for _, up := range adj {
			dst := m.Part()
			if to := t.res(up); len(to) > 0 { // up is moving
				dst = to[0]
			}
			t.add(e, dst)
		}
	}
	for i := range mg.parts {
		p := &mg.parts[i]
		if i >= len(plans) || localErr != nil {
			continue
		}
		// Drop self-moves, validate. This is the one read of the Plan map;
		// from here every per-entity fact lives in the part's table, a
		// moving element's run being its destination.
		moves := make([]uint64, 0, len(plans[i]))
		for el, q := range plans[i] {
			switch {
			case !p.M.Alive(el):
				localErr = fmt.Errorf("plan of part %d names %v, not alive there (a stale handle?)", p.M.Part(), el)
			case el.Dim() != d:
				localErr = fmt.Errorf("plan of part %d contains non-element %v", p.M.Part(), el)
			case int(q) < 0 || int(q) >= dm.NParts():
				localErr = fmt.Errorf("plan of part %d sends %v to invalid part %d", p.M.Part(), el, q)
			case q != p.M.Part():
				moves = append(moves, uint64(q)<<32|uint64(el.Pack()))
			}
		}
		if localErr != nil {
			moves = nil
		}
		slices.Sort(moves)
		p.moves = moves
		mg.moved += int64(len(moves))
		// The table will hold the moving elements and their closure.
		bound := closureBound(p.M, moves, d)
		t := &p.tab
		t.reserve(len(moves) + bound)
		for _, mv := range moves {
			t.add(moveEnt(mv), int32(mv>>32))
		}
		p.closure = make([]uint32, 0, bound)
		for _, mv := range moves {
			p.closure = appendClosure(p.closure, p.M, moveEnt(mv), t.touch)
		}
		slices.Sort(p.closure)
		for _, w := range p.closure {
			contribute(t, p.M, mesh.UnpackEnt(w))
		}
	}

	// Step 2: exchange contributions across current residence parts of
	// the affected shared entities. Two rounds: parts with moving
	// elements announce their contributions to every copy; any copy
	// that received an announcement without having sent one replies
	// with its own contribution to every copy, so all copies end up
	// with the complete new residence set. Received contributions merge
	// into the entity's run in place: the local contribution is only
	// ever sent before the first merge.
	var peers []int32 // remote-part scratch
	sendContrib := func(p *moving, e mesh.Ent) {
		peers = p.M.AppendRemoteParts(e, peers[:0])
		for _, r := range peers {
			b := ph.to(p.M.Part(), r)
			b.Byte(byte(e.Dim()))
			b.Int64(p.Gid(e))
			b.Int32s(p.tab.res(e))
		}
	}
	for i := range mg.parts {
		p := &mg.parts[i]
		for _, w := range p.closure {
			if e := mesh.UnpackEnt(w); p.M.IsShared(e) {
				sendContrib(p, e)
			}
		}
	}
	var vals []int32 // contribution decode scratch
	// applyContrib merges one announcement message; in round one the
	// entities heard of here for the first time are kept for the reply.
	applyContrib := func(msg partMsg, roundOne bool) {
		p := &mg.parts[dm.localIndex(msg.To)]
		for !msg.Data.Empty() {
			dd := int(msg.Data.Byte())
			gid := msg.Data.Int64()
			vals = msg.Data.AppendInt32s(vals[:0])
			e, ok := p.FindGid(dd, gid)
			if !ok {
				panic(fmt.Sprintf("partition: contribution for unknown gid %d dim %d on part %d",
					gid, dd, msg.To))
			}
			if p.tab.touch(e) {
				// First word of this entity here: fold in the local
				// contribution and remember to reply in round two.
				contribute(&p.tab, p.M, e)
				if roundOne {
					p.fresh = append(p.fresh, e)
				}
			}
			for _, v := range vals {
				p.tab.add(e, v)
			}
		}
	}
	if err := catchStage(func() {
		for _, msg := range ph.exchange() {
			applyContrib(msg, true)
		}
	}); localErr == nil {
		localErr = err
	}
	// A rank that is already voting to abort still takes part in the
	// round-two exchange (with nothing to send) so the collective
	// schedule stays aligned all the way to the vote.
	if localErr == nil {
		for i := range mg.parts {
			p := &mg.parts[i]
			for _, e := range p.fresh {
				sendContrib(p, e)
			}
		}
	}
	if err := catchStage(func() {
		for _, msg := range ph.exchange() {
			applyContrib(msg, false)
		}
	}); localErr == nil {
		localErr = err
	}
	return localErr
}

// Step 3 ships every run of moving elements with its closure, written
// once, straight into the destination rank's buffer. planShipment
// collects each run's closure and counts its records, so that a rank
// buffer is reserved once at the sum of its messages — exact unless
// entities carry tag values, which the count leaves out; writeShipment
// writes the messages in (from, to) order, patching each length prefix.
func (mg *migration) planShipment() {
	dm, d, ph := mg.dm, mg.dm.Dim, mg.ph
	for i := range mg.parts {
		p := &mg.parts[i]
		// A run ships e only if an element beside e goes there, which put
		// the run's destination in e's staged residence: a bound on ship,
		// with a length word per run.
		n := min(len(p.moves), dm.NParts())
		for _, w := range p.closure {
			n += int(p.tab.entry(mesh.UnpackEnt(w)).n)
		}
		ship := make([]uint32, 0, n)
		for lo := 0; lo < len(p.moves); {
			q, hi := destRun(p.moves, lo)
			at, group := len(ship), int32(lo)+1 // a stamp no other run of this call uses
			size := 1 + 4*(d+1)                 // empty tag table, level counts
			stamp := func(e mesh.Ent) bool {
				en := p.tab.entry(e)
				if en.group == group {
					return false
				}
				en.group = group
				size += recordBytes(e.T, int(en.n))
				return true
			}
			ship = append(ship, 0)
			for _, mv := range p.moves[lo:hi] {
				el := moveEnt(mv)
				size += recordBytes(el.T, 1)
				ship = appendClosure(ship, p.M, el, stamp)
			}
			slices.Sort(ship[at+1:])
			ship[at] = uint32(len(ship) - at - 1)
			ph.need[dm.RankOf(q)] += 12 + size
			lo = hi
		}
		p.ship = ship
	}
}

func (mg *migration) writeShipment() {
	dm, d, ph := mg.dm, mg.dm.Dim, mg.ph
	for i := range mg.parts {
		p := &mg.parts[i]
		ship := p.ship
		for lo := 0; lo < len(p.moves); {
			q, hi := destRun(p.moves, lo)
			n := int(ship[0])
			b := ph.rankBuf(dm.RankOf(q))
			b.Int32(p.M.Part())
			b.Int32(q)
			at := b.Len()
			b.Int32(0)
			packRecords(b, p.Part, d, ship[1:1+n], p.moves[lo:hi], func(e mesh.Ent) { b.Int32s(p.tab.res(e)) }, nil)
			b.SetInt32(at, int32(b.Len()-at-4))
			ship, lo = ship[1+n:], hi
		}
	}
}

// receiveElements delivers the shipment and stages what arrives.
func (mg *migration) receiveElements() {
	msgs := mg.ph.exchange()
	// Every arriving record enters its part's table and may create an
	// entity; it carries at least one residence part, so no more arrive
	// than the smallest such record, an edge's, fits in the payloads.
	for _, msg := range msgs {
		mg.parts[mg.dm.localIndex(msg.To)].arriving += msg.Data.Remaining() / recordBytes(mesh.Edge, 1)
	}
	for i := range mg.parts {
		p := &mg.parts[i]
		p.tab.reserve(p.arriving)
		p.created = make([]uint32, 0, p.arriving)
	}
	var run []int32 // residence decode scratch
	for _, msg := range msgs {
		p, r := &mg.parts[mg.dm.localIndex(msg.To)], msg.Data
		unpackRecords(p.Part, r, mg.dm.Dim, true,
			func() { run = r.AppendInt32s(run[:0]) },
			func(e mesh.Ent, created bool) {
				// Logged in creation order, for an abort to roll back.
				if created {
					p.created = append(p.created, e.Pack())
				}
				for _, q := range run {
					p.tab.add(e, q)
				}
			})
	}
}

// commit is steps 4 and 5, run only on a unanimous vote: every rank has
// staged and validated its incoming data.
func (mg *migration) commit() {
	dm, d, ph := mg.dm, mg.dm.Dim, mg.ph

	// Step 4: remove migrated elements, in handle order, and orphaned
	// closure entities.
	for i := range mg.parts {
		p := &mg.parts[i]
		for j := range p.moves {
			p.moves[j] &= 1<<32 - 1 // the destinations have served
		}
		slices.Sort(p.moves)
		for _, mv := range p.moves {
			p.M.Destroy(moveEnt(mv))
		}
		for dd := d - 1; dd >= 0; dd-- {
			for _, w := range level(p.closure, dd) {
				if e := mesh.UnpackEnt(w); p.M.Alive(e) && !p.M.HasUp(e) {
					p.M.Destroy(e)
				}
			}
		}
	}

	// Step 5: rebuild remote copies and ownership where residence
	// changed. The candidates are the table's surviving entities, staged
	// here or received. A part's stitch records are counted per
	// destination before any is packed: a pair buffer is reserved once.
	var cand []uint32
	var current []int32                 // residence-by-links scratch
	records := make([]int, dm.NParts()) // stitch records per destination, of the part in hand
	for i := range mg.parts {
		p := &mg.parts[i]
		m, t := p.M, &p.tab
		self := m.Part()
		cand = slices.Grow(cand[:0], len(t.entries)+len(t.more))
		for _, seg := range [2][]resEntry{t.entries, t.more} {
			for _, en := range seg {
				if m.Alive(mesh.UnpackEnt(en.w)) {
					cand = append(cand, en.w)
				}
			}
		}
		slices.Sort(cand)
		for _, w := range cand {
			e := mesh.UnpackEnt(w)
			res := t.res(e)
			// Restitch exactly when the residence set changed. This
			// decision is symmetric across all copies: the staged
			// residence is globally consistent and pre-migration remote
			// links are symmetric, so either every copy restitches or
			// none does. A freshly created copy always restitches (its
			// local residence starts as just this part).
			current = m.AppendResidence(e, current[:0])
			if slices.Equal(res, current) {
				continue
			}
			m.ClearRemotes(e)
			p.fixes = append(p.fixes, uint64(res[0])<<32|uint64(w))
			for _, q := range res {
				records[q]++
			}
		}
		for q, n := range records {
			if n > 0 && int32(q) != self {
				ph.to(self, int32(q)).Grow(14 * n)
			}
			records[q] = 0
		}
		for _, f := range p.fixes {
			e := moveEnt(f)
			for _, q := range t.res(e) {
				if q == self {
					continue
				}
				packStitch(ph.to(self, q), p.Part, e)
			}
		}
	}
	ph.applyStitches()
	for i := range mg.parts {
		p := &mg.parts[i]
		for _, f := range p.fixes {
			p.M.SetOwner(moveEnt(f), int32(f>>32))
		}
	}
}

// packStitch tells another part where part's copy of e lives.
func packStitch(b *pcu.Buffer, part *Part, e mesh.Ent) {
	b.Byte(byte(e.Dim()))
	b.Int64(part.Gid(e))
	b.Byte(byte(e.T))
	b.Int32(e.I)
}

// applyStitches exchanges the stitch records packed and links the local
// copy each names, found by global id, to the sender's. Holding no copy
// is recoverable under catchStage (a bad checkpoint), else a bug.
func (ph *phase) applyStitches() {
	for _, msg := range ph.exchange() {
		part := ph.dm.LocalPart(msg.To)
		for r := msg.Data; !r.Empty(); {
			dd, gid := int(r.Byte()), r.Int64()
			theirs := mesh.Ent{T: mesh.Type(r.Byte()), I: r.Int32()}
			e, ok := part.FindGid(dd, gid)
			if !ok {
				panic(migrateLocalError{fmt.Errorf(
					"partition: part %d is named in the residence of gid %d dim %d but holds no copy", msg.To, gid, dd)})
			}
			part.M.SetRemote(e, msg.From, theirs)
		}
	}
}

// resTable is one part's bookkeeping for one TryMigrate call: the set
// of affected entities and, for each, one sorted run of part ids in a
// call-scoped arena — the destination of a moving element, the staged
// new residence of everything else (local contribution, then remote
// contributions and received residences merged in). An entity is found
// by array index: idx, the part's persistent column, maps its slot to
// 1 + its position in the entry list, zero meaning absent; reset zeroes
// exactly the touched slots, so a call costs in proportion to what it
// touches, never to the mesh.
//
// The entry list is entries followed by more: the send side reserves
// entries, the receive side more, so sizing it copies nothing. more
// takes an entry only once entries is full, which then grows no further.
type resTable struct {
	idx           *[mesh.TypeCount][]int32
	entries, more []resEntry
	arena         []int32
}

type resEntry struct {
	w      uint32 // the entity, packed
	off, n int32  // the run arena[off:off+n]
	group  int32  // the last run planShipment visited the entity from
}

// entry returns e's entry, nil if e is absent; valid until the next
// touch.
func (t *resTable) entry(e mesh.Ent) *resEntry {
	col := t.idx[e.T]
	if int(e.I) >= len(col) || col[e.I] == 0 {
		return nil
	}
	if pos := int(col[e.I]) - 1 - len(t.entries); pos >= 0 {
		return &t.more[pos]
	}
	return &t.entries[col[e.I]-1]
}

// touch enters e with an empty run if it is absent, and reports whether
// it was.
func (t *resTable) touch(e mesh.Ent) bool {
	if t.entry(e) != nil {
		return false
	}
	col := t.idx[e.T]
	for int(e.I) >= len(col) {
		col = append(col, 0)
	}
	t.idx[e.T] = col
	if len(t.entries) < cap(t.entries) || cap(t.more) == 0 {
		t.entries = append(t.entries, resEntry{w: e.Pack()})
	} else {
		t.more = append(t.more, resEntry{w: e.Pack()})
	}
	col[e.I] = int32(len(t.entries) + len(t.more))
	return true
}

// reserve makes room for n more entities and as many run cells, leaving
// the entries already made where they are.
func (t *resTable) reserve(n int) {
	if len(t.entries) == 0 {
		t.entries = slices.Grow(t.entries, n)
	} else if spare := cap(t.entries) - len(t.entries); n > spare {
		t.more = slices.Grow(t.more, n-spare)
	}
	t.arena = slices.Grow(t.arena, n)
}

// res returns e's run, ascending, nil if e is absent; valid until the
// next add.
func (t *resTable) res(e mesh.Ent) []int32 {
	en := t.entry(e)
	if en == nil {
		return nil
	}
	return t.arena[en.off : en.off+en.n]
}

// add inserts part id v into e's run, entering e if absent. A run grows
// in place at the arena's tail; one that is not there is first copied
// to the tail, its old cells abandoned until the call ends (runs have
// 1-8 members).
func (t *resTable) add(e mesh.Ent, v int32) {
	t.touch(e)
	en := t.entry(e)
	i, found := slices.BinarySearch(t.arena[en.off:en.off+en.n], v)
	if found {
		return
	}
	if int(en.off+en.n) != len(t.arena) {
		t.arena = append(t.arena, t.arena[en.off:en.off+en.n]...)
		en.off = int32(len(t.arena)) - en.n
	}
	t.arena = slices.Insert(t.arena, int(en.off)+i, v)
	en.n++
}

// reset clears the index column through the touched list.
func (t *resTable) reset() {
	for _, seg := range [2][]resEntry{t.entries, t.more} {
		for _, en := range seg {
			e := mesh.UnpackEnt(en.w)
			t.idx[e.T][e.I] = 0
		}
	}
	*t = resTable{idx: t.idx}
}

// closureBound returns an upper bound on the downward closure of the
// moving elements: each bringing all its own vertices, edges and faces,
// and no more than the part holds below dimension d.
func closureBound(m *mesh.Mesh, moves []uint64, d int) int {
	n, held := 0, 0
	for _, mv := range moves {
		v, f := moveEnt(mv).T.VertCount(), moveEnt(mv).T.DownCount()
		n += v
		if d > 1 {
			n += f
		}
		if d == 3 {
			n += v + f - 2 // edges, by Euler's formula for one polyhedron
		}
	}
	for dd := 0; dd < d; dd++ {
		held += m.Count(dd)
	}
	return min(n, held)
}

// appendClosure appends to words the entities of el's downward closure
// that first reports true for — a visited-set insert, so that over many
// elements each entity appears once. The caller sorts the list: packed
// handles ascend by dimension, then by handle.
func appendClosure(words []uint32, m *mesh.Mesh, el mesh.Ent, first func(mesh.Ent) bool) []uint32 {
	var one [32]uint32 // one element's closure: at most 8 + 12 + 6 entities
	for _, w := range m.ClosureTo(el, one[:0]) {
		if first(mesh.UnpackEnt(w)) {
			words = append(words, w)
		}
	}
	return words
}

// recordBytes is the size of a packElements record without tag values:
// type, gid, classification, run, coordinates or down gids, tag count.
func recordBytes(t mesh.Type, nres int) int {
	n := 1 + 8 + 1 + 4 + 4 + 4*nres + 1
	if t == mesh.Vertex {
		return n + 24
	}
	return n + 4 + 8*t.DownCount()
}

// packRecords encodes closure (ascending) and then the elements els,
// dimension by dimension: a count, then a record each — type, global id,
// classification, what mid packs (a migrating entity's staged residence,
// a ghost's owner), coordinates or downward global ids, tag values and,
// after an element's, what tail packs.
func packRecords(b *pcu.Buffer, part *Part, d int, closure []uint32, els []uint64, mid, tail func(mesh.Ent)) {
	m := part.M
	movable := writeTagTable(b, m)
	var gids []int64 // down-adjacency gid scratch, bulk-packed per entity
	var down []mesh.Ent
	record := func(e mesh.Ent) {
		b.Byte(byte(e.T))
		b.Int64(part.Gid(e))
		c := m.Classification(e)
		b.Byte(byte(int8(c.Dim) + 1)) // -1..3 -> 0..4
		b.Int32(c.Tag)
		mid(e)
		if e.T == mesh.Vertex {
			x := m.Coord(e)
			b.Float64(x.X)
			b.Float64(x.Y)
			b.Float64(x.Z)
		} else {
			down = m.DownTo(e, down[:0])
			gids = gids[:0]
			for _, de := range down {
				gids = append(gids, part.Gid(de))
			}
			b.Int64s(gids)
		}
		writeEntityTags(b, m, movable, e)
	}
	for dd := 0; dd < d; dd++ {
		lv := level(closure, dd)
		b.Int32(int32(len(lv)))
		for _, w := range lv {
			record(mesh.UnpackEnt(w))
		}
	}
	b.Int32(int32(len(els)))
	for _, mv := range els {
		record(moveEnt(mv))
		if tail != nil {
			tail(moveEnt(mv))
		}
	}
}

// unpackRecords decodes what packRecords encoded onto part, finding each
// entity by global id or creating it; tag values go to the ones created
// (existing copies keep their own). mid reads what its namesake packed;
// landed is told of every entity, the reader standing where tail packed.
// reserve sizes the part's arrays by the level counts. An entity ahead
// of its closure is a recoverable failure: the abort vote rolls it back.
func unpackRecords(part *Part, r *pcu.Reader, d int, reserve bool, mid func(), landed func(e mesh.Ent, created bool)) {
	m := part.M
	table := readTagTable(r, m)
	var gids []int64    // down-adjacency gid decode scratch
	var down []mesh.Ent // and the handles they resolve to
	for dd := 0; dd <= d; dd++ {
		n := int(r.Int32())
		// The level count, capped by what the bytes left could carry,
		// sizes the mesh: the part may hold some of these already.
		room := max(0, min(n, r.Remaining()/recordBytes(mesh.Edge, 0)))
		reserved := mesh.TypeCount
		for k := 0; k < n; k++ {
			t := mesh.Type(r.Byte())
			if reserve && t != reserved {
				part.reserve(t, room-k)
				reserved = t
			}
			gid := r.Int64()
			cls := readClassif(r)
			mid()
			var x vec.V
			if dd == 0 {
				x = vec.V{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
			} else {
				gids = r.AppendInt64s(gids[:0])
				down = down[:0]
				for _, dg := range gids {
					de, ok := part.FindGid(dd-1, dg)
					if !ok {
						panic(migrateLocalError{fmt.Errorf(
							"partition: entity gid %d dim %d arrived before its closure", gid, dd)})
					}
					down = append(down, de)
				}
			}
			e, found := part.FindGid(dd, gid)
			if !found {
				if dd == 0 {
					e = m.CreateVertex(cls, x)
				} else {
					e = m.CreateEntity(t, cls, down)
				}
				part.setGid(e, gid)
			}
			applyEntityTags(r, m, table, e, !found)
			landed(e, !found)
		}
	}
	r.Done()
}
