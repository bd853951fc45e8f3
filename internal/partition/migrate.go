package partition

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
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

// localFail panics with a recoverable local failure for catchStage.
func localFail(format string, args ...any) {
	panic(migrateLocalError{fmt.Errorf(format, args...)})
}

// catchStage runs f, converting recoverable local failures — corrupt
// off-node frames, payloads or files that do not decode (pcu's
// ErrMalformed) and staged-data validation — into a returned error.
// Teardown panics (peer failure, a stall) and genuine bugs, runtime
// errors among them, propagate.
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
		if e, ok := p.(error); ok && (errors.Is(e, pcu.ErrCorruptMessage) || errors.Is(e, pcu.ErrMalformed)) {
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
// The vote is one reduction of the message lengths; the messages
// themselves cross only when some rank failed.
func GatherCauses(ctx *pcu.Ctx, localErr error) string {
	s := ""
	if localErr != nil {
		s = localErr.Error()
	}
	if pcu.MaxInt64(ctx, int64(len(s))) == 0 {
		return ""
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
// rebuild remote-copy links for every entity whose residence changed.
// Ownership follows the links: the least part of the new residence.
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

	mg.packShipment()
	if err := voteAbort(dm, catchStage(mg.receiveElements), "shipping element closures"); err != nil {
		rollbackCreated(mg.parts)
		tr.Point("migrate.abort", 2)
		return err
	}
	// Commit point reached: stage marks 1/2 are the abort votes passed,
	// mark 3 is the irreversible destroy-and-restitch step starting. It
	// rewrites links, and with them ownership, on entities this part does
	// not own — that is the protocol, so sanctioned for the sanitizer.
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
		mg.parts[i] = moving{Part: part, tab: resTable{idx: &part.resIdx, gids: &part.gids}}
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
	movable  []*ds.Tag // the tags that travel with what the part ships
	fresh    []uint32  // shared entities first heard of in round one of step 2
	arriving int       // bound on the records step 3 delivers here
	created  []uint32  // entities step 3 created here, in creation order
	fixes    []uint32  // entities step 5 restitches, ascending
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

	for i := range mg.parts {
		p := &mg.parts[i]
		if i >= len(plans) || localErr != nil {
			continue
		}
		var err error
		if p.movable, err = movableTags(p.M); err != nil {
			localErr = fmt.Errorf("part %d: %w", p.M.Part(), err)
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
		p.stageLocal(d)
	}

	// Step 2: exchange contributions across current residence parts of
	// the affected shared entities. Two rounds: parts with moving
	// elements announce their contributions to every copy; any copy
	// that received an announcement without having sent one replies
	// with its own contribution to every copy, so all copies end up
	// with the complete new residence set. Received contributions merge
	// into the entity's run in place: the local contribution is only
	// ever sent before the first merge.
	mg.sendContribs(0)
	if err := catchStage(func() { mg.applyContribs(ph.exchange(), true) }); localErr == nil {
		localErr = err
	}
	// A rank that is already voting to abort still takes part in the
	// round-two exchange (with nothing to send) so the collective
	// schedule stays aligned all the way to the vote.
	if localErr == nil {
		mg.sendContribs(1)
	}
	if err := catchStage(func() { mg.applyContribs(ph.exchange(), false) }); localErr == nil {
		localErr = err
	}
	return localErr
}

// sendContribs counts, then packs, for each shared entity of every part
// (its closure in round 0, in round 1 what it heard of first) its staged
// residence to every other copy: 13 bytes and 4 a part.
func (mg *migration) sendContribs(round int) {
	peers := make([]int32, 0, 16) // remote-part scratch
	for _, packing := range [2]bool{false, true} {
		for i := range mg.parts {
			p := &mg.parts[i]
			self := p.M.Part()
			for _, w := range [2][]uint32{p.closure, p.fresh}[round] {
				e := mesh.UnpackEnt(w)
				if !p.M.IsShared(e) {
					continue
				}
				res := p.tab.res(e)
				peers = p.M.AppendRemoteParts(e, peers[:0])
				for _, r := range peers {
					if !packing {
						mg.ph.count(self, r, 13+4*len(res))
						continue
					}
					b := mg.ph.to(self, r)
					b.Byte(byte(e.Dim()))
					b.Int64(p.Gid(e))
					b.Int32s(res)
				}
			}
		}
	}
}

// applyContribs merges one round's announcements part by part, after a
// pass counting the records of entities new to the table and the cells
// merging takes (values, and a run moved to the arena's tail): the table
// and, in round one, fresh grow once.
func (mg *migration) applyContribs(msgs []partMsg, roundOne bool) {
	vals := make([]int32, 0, 16) // decode scratch
	for lo, hi := 0, 0; lo < len(msgs); lo = hi {
		for hi = lo; hi < len(msgs) && msgs[hi].To == msgs[lo].To; hi++ {
		}
		p := &mg.parts[mg.dm.localIndex(msgs[lo].To)]
		added, cells := 0, 0
		for _, merging := range [2]bool{false, true} {
			if merging {
				p.tab.reserve(added, cells)
				if roundOne {
					p.fresh = make([]uint32, 0, added)
				}
			}
			for _, msg := range msgs[lo:hi] {
				for r := msg.Data; !r.Empty(); {
					dd, gid := int(r.Byte()), r.Int64()
					vals = r.AppendInt32s(vals[:0])
					e, ok := p.FindGid(dd, gid)
					if !ok {
						panic(fmt.Sprintf("partition: contribution for unknown gid %d dim %d on part %d", gid, dd, msg.To))
					}
					if !merging {
						n := 1
						if en := p.tab.entry(e); en != nil {
							n = int(en.n)
						} else {
							added++
						}
						cells += n + len(vals)
						continue
					}
					if p.tab.touch(e) {
						// First word of this entity here: no moving element
						// lies above it, so its local contribution is this
						// part alone. Remember to reply in round two.
						p.tab.add(e, p.M.Part())
						if roundOne {
							p.fresh = append(p.fresh, e.Pack())
						}
					}
					for _, v := range vals {
						p.tab.add(e, v)
					}
				}
			}
		}
	}
}

// stageLocal is step 1 on one part: the residence contributions of the
// entities the moves affect, computed from them alone (migration cost
// must scale with the move, not the mesh — ParMA runs many small
// migrations). One walk of each moving element's closure, run by run,
// enters every closure entity in the table, adds the run's destination
// to its residence and counts the entities the run reaches first: those
// the run ships. The closure, sorted once, then lays out the ship lists,
// each ascending, and marks the entities that stay.
func (p *moving) stageLocal(d int) {
	t := &p.tab
	n := len(p.moves) + closureBound(p.M, p.moves, d)
	t.reserve(n, n)
	for _, mv := range p.moves {
		t.add(moveEnt(mv), int32(mv>>32))
	}
	var runBuf [64]int32 // each run's destination, then its ship count
	var one [32]uint32   // one element's closure: at most 8 + 12 + 6 entities
	runs, ships := runBuf[:0], 0
	for lo := 0; lo < len(p.moves); {
		q, hi := destRun(p.moves, lo)
		n := int32(0)
		for _, mv := range p.moves[lo:hi] {
			for _, w := range p.M.ClosureTo(moveEnt(mv), one[:0]) {
				if t.add(mesh.UnpackEnt(w), q) {
					n++
				}
			}
		}
		runs = append(runs, q, n)
		ships += int(n)
		lo = hi
	}
	// The table's entries after the moving elements are the closure, in
	// the order the walk met them; none has reached more yet.
	p.closure = make([]uint32, len(t.entries)-len(p.moves))
	for j, en := range t.entries[len(p.moves):] {
		p.closure[j] = en.w
	}
	slices.Sort(p.closure)
	// Each run's ship list is its length, then its entities; runs[k+1]
	// becomes the write position of run k's next entity.
	p.ship = make([]uint32, len(runs)/2+ships)
	at := 0
	for k := 0; k < len(runs); k += 2 {
		p.ship[at] = uint32(runs[k+1])
		runs[k+1] = int32(at + 1)
		at += 1 + int(p.ship[at])
	}
	for _, w := range p.closure {
		for _, q := range t.res(mesh.UnpackEnt(w)) {
			k := 0
			for runs[k] != q {
				k += 2
			}
			p.ship[runs[k+1]] = w
			runs[k+1]++
		}
	}
	// An entity stays on this part if an element above it does not move.
	// Marked top-down, one level of uses at a time: the entity stays if
	// something directly above it is absent from the table (no moving
	// element lies above that) or stays itself.
	self := p.M.Part()
	var up [64]mesh.Ent
	for dd := d - 1; dd >= 0; dd-- {
		for _, w := range level(p.closure, dd) {
			e := mesh.UnpackEnt(w)
			for _, u := range p.M.UpTo(e, up[:0]) {
				if en := t.entry(u); en == nil || slices.Contains(t.arena[en.off:en.off+en.n], self) {
					t.add(e, self)
					break
				}
			}
		}
	}
}

// packShipment is step 3: every run of moving elements ships with its
// closure, counted with tag values and staged residences, then packed.
func (mg *migration) packShipment() {
	d, ph := mg.dm.Dim, mg.ph
	for _, packing := range [2]bool{false, true} {
		for i := range mg.parts {
			p := &mg.parts[i]
			ship, movable := p.ship, p.movable
			for lo := 0; lo < len(p.moves); {
				q, hi := destRun(p.moves, lo)
				n := int(ship[0])
				closure, els := ship[1:1+n], p.moves[lo:hi]
				if packing {
					b := ph.to(p.M.Part(), q)
					packRecords(b, p.Part, d, movable, closure, els, func(e mesh.Ent) { b.Int32s(p.tab.res(e)) }, nil)
				} else {
					size := headerBytes(movable, d)
					for _, mv := range els {
						size += recordSize(p.M, movable, moveEnt(mv), 4+4)
					}
					for _, w := range closure {
						e := mesh.UnpackEnt(w)
						size += recordSize(p.M, movable, e, 4+4*len(p.tab.res(e)))
					}
					ph.count(p.M.Part(), q, size)
				}
				ship, lo = ship[1+n:], hi
			}
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
		mg.parts[mg.dm.localIndex(msg.To)].arriving += msg.Data.Remaining() / recordBytes(mesh.Edge, 4+4)
	}
	for i := range mg.parts {
		p := &mg.parts[i]
		p.tab.reserve(p.arriving, p.arriving)
		p.created = make([]uint32, 0, p.arriving)
	}
	var run []int32 // residence decode scratch
	for i := range msgs {
		p, r := &mg.parts[mg.dm.localIndex(msgs[i].To)], &msgs[i].Data
		unpackRecords(p.Part, r, mg.dm.Dim, p.reserve,
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
	d, ph := mg.dm.Dim, mg.ph

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

	// Step 5: rebuild remote copies where residence changed; the owners
	// follow. The candidates are the table's surviving entities, staged
	// here or received; those whose residence changed are the part's
	// fixes. Every part decides and counts before any packs.
	var cand []uint32
	current := make([]int32, 0, 16) // residence-by-links scratch
	for i := range mg.parts {
		p := &mg.parts[i]
		m, t := p.M, &p.tab
		cand = slices.Grow(cand[:0], len(t.entries)+len(t.more))
		for _, seg := range [2][]resEntry{t.entries, t.more} {
			for _, en := range seg {
				if m.Alive(mesh.UnpackEnt(en.w)) {
					cand = append(cand, en.w)
				}
			}
		}
		slices.Sort(cand)
		k := 0
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
			cand[k] = w
			k++
			ph.stitch(p.Part, e, res, false)
		}
		p.fixes = slices.Clone(cand[:k])
	}
	for i := range mg.parts {
		p := &mg.parts[i]
		for _, w := range p.fixes {
			e := mesh.UnpackEnt(w)
			ph.stitch(p.Part, e, p.tab.res(e), true)
		}
	}
	ph.applyStitches()
}

// stitch tells every other part of res where part's copy of e lives:
// counting, then packing, a 14-byte record to each.
func (ph *phase) stitch(part *Part, e mesh.Ent, res []int32, packing bool) {
	self := part.M.Part()
	for _, q := range res {
		switch {
		case q == self:
		case !packing:
			ph.count(self, q, 1+8+1+4)
		default:
			b := ph.to(self, q)
			b.Byte(byte(e.Dim()))
			b.Int64(part.Gid(e))
			b.Byte(byte(e.T))
			b.Int32(e.I)
		}
	}
}

// applyStitches exchanges the stitch records packed and links the local
// copy each names, found by global id, to the sender's. Holding no copy
// is recoverable under catchStage (a bad checkpoint), else a bug.
func (ph *phase) applyStitches() {
	msgs := ph.exchange()
	for i, msg := range msgs {
		part := ph.dm.LocalPart(msg.To)
		if i == 0 || msgs[i-1].To != msg.To {
			reserveLinks(part.M, msgs[i:])
		}
		for r := &msgs[i].Data; !r.Empty(); {
			dd, gid := int(r.Byte()), r.Int64()
			theirs := mesh.Ent{T: mesh.Type(r.Byte()), I: r.Int32()}
			e, ok := part.FindGid(dd, gid)
			if !ok {
				localFail("partition: part %d is named in the residence of gid %d dim %d but holds no copy", msg.To, gid, dd)
			}
			part.M.SetRemote(e, msg.From, theirs)
		}
	}
}

// reserveLinks sizes m's link records, once per type, for the stitch
// records of the leading messages, those addressed to m's part.
func reserveLinks(m *mesh.Mesh, msgs []partMsg) {
	var links [mesh.TypeCount]int
	for _, msg := range msgs {
		if msg.To != m.Part() {
			break
		}
		for r := msg.Data; !r.Empty(); r.Advance(4) {
			r.Advance(1 + 8)
			links[r.Byte()]++
		}
	}
	for t, n := range links {
		m.ReserveBoundary(mesh.Type(t), 0, n)
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
// touches, never to the mesh. A short column grows once, to the gids'.
//
// The entry list is entries followed by more: the send side reserves
// entries, the receive side more, so sizing it copies nothing. more
// takes an entry only once entries is full, which then grows no further.
type resTable struct {
	idx           *[mesh.TypeCount][]int32
	gids          *gidColumns
	entries, more []resEntry
	arena         []int32
}

type resEntry struct {
	w      uint32 // the entity, packed
	off, n int32  // the run arena[off:off+n]
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
	if int(e.I) >= len(col) {
		col = append(col, make([]int32, max(int(e.I)+1, len(t.gids[e.T]))-len(col))...)
		t.idx[e.T] = col
	}
	if len(t.entries) < cap(t.entries) || cap(t.more) == 0 {
		t.entries = append(t.entries, resEntry{w: e.Pack()})
	} else {
		t.more = append(t.more, resEntry{w: e.Pack()})
	}
	col[e.I] = int32(len(t.entries) + len(t.more))
	return true
}

// reserve makes room for n more entities and cells more run cells,
// leaving the entries already made where they are.
func (t *resTable) reserve(n, cells int) {
	if len(t.entries) == 0 {
		t.entries = slices.Grow(t.entries, n)
	} else if spare := cap(t.entries) - len(t.entries); n > spare {
		t.more = slices.Grow(t.more, n-spare)
	}
	t.arena = slices.Grow(t.arena, cells)
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

// add inserts part id v into e's run, entering e if absent, and reports
// whether v was new to the run. A run grows in place at the arena's
// tail; one that is not there is first copied to the tail, its old cells
// abandoned until the call ends (runs have 1-8 members).
func (t *resTable) add(e mesh.Ent, v int32) bool {
	en := t.entry(e)
	if en == nil {
		t.touch(e)
		en = t.entry(e)
	}
	i, found := slices.BinarySearch(t.arena[en.off:en.off+en.n], v)
	if found {
		return false
	}
	if int(en.off+en.n) != len(t.arena) {
		t.arena = append(t.arena, t.arena[en.off:en.off+en.n]...)
		en.off = int32(len(t.arena)) - en.n
	}
	t.arena = slices.Insert(t.arena, int(en.off)+i, v)
	en.n++
	return true
}

// reset clears the index column through the touched list.
func (t *resTable) reset() {
	for _, seg := range [2][]resEntry{t.entries, t.more} {
		for _, en := range seg {
			e := mesh.UnpackEnt(en.w)
			t.idx[e.T][e.I] = 0
		}
	}
	*t = resTable{idx: t.idx, gids: t.gids}
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

// recordBytes is the size of a packRecord record of a type-t entity
// without tag values, mid packing mid bytes: type, gid, classification,
// mid, coordinates or down gids, tag count.
func recordBytes(t mesh.Type, mid int) int {
	n := 1 + 8 + 1 + 4 + mid + 1
	if t == mesh.Vertex {
		return n + 24
	}
	return n + 4 + 8*t.DownCount()
}

// recordSize is the size of e's packRecord record, mid packing mid
// bytes, with its tag values: what a sender counts to reserve a message
// before writing it.
func recordSize(m *mesh.Mesh, movable []*ds.Tag, e mesh.Ent, mid int) int {
	return recordBytes(e.T, mid) + tagValueBytes(m, movable, e)
}

// headerBytes is the size of what a shipment packs besides its records:
// the tag table and d+1 level counts.
func headerBytes(movable []*ds.Tag, d int) int { return tagTableBytes(movable) + 4*(d+1) }

// A shipment is the one entity format, on the wire and on disk: the tag
// table of movable, then d+1 levels, each a count and a record per
// entity, types ascending — the closure, dimension by dimension, then
// the elements. A record is the entity's type, global id,
// classification, what mid packs (a migrating entity's staged
// residence, a ghost's owner, a checkpointed entity's residence, or
// nothing in a serial file), coordinates or downward global ids, then
// its tag values.

// packRecords packs a shipment of closure (ascending) and the elements
// els, what tail packs following each element's record.
func packRecords(b *pcu.Buffer, part *Part, d int, movable []*ds.Tag, closure []uint32, els []uint64, mid, tail func(mesh.Ent)) {
	writeTagTable(b, movable)
	for dd := 0; dd < d; dd++ {
		lv := level(closure, dd)
		b.Int32(int32(len(lv)))
		for _, w := range lv {
			packRecord(b, part, movable, mesh.UnpackEnt(w), mid)
		}
	}
	b.Int32(int32(len(els)))
	for _, mv := range els {
		packRecord(b, part, movable, moveEnt(mv), mid)
		if tail != nil {
			tail(moveEnt(mv))
		}
	}
}

// packPart packs the whole part as one shipment, every level in handle
// order.
func packPart(b *pcu.Buffer, part *Part, movable []*ds.Tag, mid func(mesh.Ent)) {
	m := part.M
	writeTagTable(b, movable)
	for d := 0; d <= m.Dim(); d++ {
		b.Int32(int32(m.Count(d)))
		for e := range m.Iter(d) {
			packRecord(b, part, movable, e, mid)
		}
	}
}

// packRecord packs e's record; a nil mid packs nothing there.
func packRecord(b *pcu.Buffer, part *Part, movable []*ds.Tag, e mesh.Ent, mid func(mesh.Ent)) {
	m := part.M
	b.Byte(byte(e.T))
	b.Int64(part.Gid(e))
	c := m.Classification(e)
	b.Byte(byte(c.Dim + 1)) // -1..3 -> 0..4
	b.Int32(c.Tag)
	if mid != nil {
		mid(e)
	}
	if e.T == mesh.Vertex {
		x := m.Coord(e)
		b.Float64(x.X)
		b.Float64(x.Y)
		b.Float64(x.Z)
	} else {
		// At most 6 entities lie one level below any.
		var down [6]mesh.Ent
		var gids [6]int64
		n := 0
		for _, de := range m.DownTo(e, down[:0]) {
			gids[n] = part.Gid(de)
			n++
		}
		b.Int64s(gids[:n])
	}
	writeEntityTags(b, m, movable, e)
}

// unpackRecords decodes a shipment onto part, finding each entity by
// global id or creating it; tag values go to the ones created (existing
// copies keep their own). mid, if not nil, reads what its namesake
// packed; landed is told of every entity, the reader standing where
// tail packed. reserve, if not nil, sizes the part's arrays by the level
// counts, once per type. Bytes that do not decode into entities the
// mesh can hold — a record of a type out of place, a negative gid, a
// classification storage cannot hold, an entity ahead of its closure
// or with downward entities TryCreateEntity refuses — are a recoverable
// failure: the abort vote rolls a migration back, a load returns it.
func unpackRecords(part *Part, r *pcu.Reader, d int, reserve func(mesh.Type, int), mid func(), landed func(e mesh.Ent, created bool)) {
	m := part.M
	table := readTagTable(r, m)
	// Down-adjacency scratch: at most 6 entities lie one level below any.
	gids, down := make([]int64, 0, 6), make([]mesh.Ent, 0, 6)
	for dd := 0; dd <= d; dd++ {
		n := int(r.Int32())
		if n < 0 || n > mesh.MaxSlots {
			localFail("partition: %d dimension-%d records, past mesh.MaxSlots = %d", n, dd, mesh.MaxSlots)
		}
		// The level count, capped by what the bytes left could carry,
		// sizes the mesh: the part may hold some of these already.
		room := min(n, r.Remaining()/recordBytes(mesh.Edge, 0))
		prev := mesh.TypesOfDim(dd)[0]
		for k := 0; k < n; k++ {
			t := mesh.Type(r.Byte())
			if t < prev || t >= mesh.TypeCount || t.Dim() != dd {
				localFail("partition: a %v record in the dimension-%d level, after a %v", t, dd, prev)
			}
			if reserve != nil && (k == 0 || t != prev) {
				reserve(t, room-k)
			}
			prev = t
			gid := r.Int64()
			if gid < 0 {
				localFail("partition: a record of gid %d", gid)
			}
			cls := readClassif(r)
			if mid != nil {
				mid()
			}
			var x vec.V
			if dd == 0 {
				x = vec.V{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
			} else {
				gids = r.AppendInt64s(gids[:0])
				down = down[:0]
				for _, dg := range gids {
					de, ok := part.FindGid(dd-1, dg)
					if !ok {
						localFail("partition: entity gid %d dim %d arrived before its closure", gid, dd)
					}
					down = append(down, de)
				}
			}
			e, found := part.FindGid(dd, gid)
			if !found {
				var err error
				if dd == 0 {
					e = m.CreateVertex(cls, x)
				} else if e, err = m.TryCreateEntity(t, cls, down); err != nil {
					localFail("partition: entity gid %d: %w", gid, err)
				}
				part.setGid(e, gid)
			}
			applyEntityTags(r, m, table, e, !found)
			landed(e, !found)
		}
	}
	r.Done()
}

// readClassif reads a record's classification, one storage can hold.
func readClassif(r *pcu.Reader) gmi.Ref {
	c := gmi.Ref{Dim: int8(r.Byte()) - 1, Tag: r.Int32()}
	if !mesh.Classifiable(c) {
		localFail("partition: classification %v out of range", c)
	}
	return c
}
