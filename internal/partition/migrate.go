package partition

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

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
// causes. The Allgather keeps the collective schedule aligned even when
// only some ranks failed.
func voteAbort(dm *DMesh, localErr error, stage string) error {
	s := ""
	if localErr != nil {
		s = localErr.Error()
	}
	all := pcu.Allgather(dm.Ctx, s)
	var causes []string
	for r, m := range all {
		if m != "" {
			causes = append(causes, fmt.Sprintf("rank %d: %s", r, m))
		}
	}
	if len(causes) == 0 {
		return nil
	}
	return fmt.Errorf("%w while %s: %s", ErrMigrateAborted, stage, strings.Join(causes, "; "))
}

// rollbackCreated destroys the entities a migration staged onto each
// part, newest first so no entity is removed before its upward
// adjacencies. After rollback the mesh is exactly as before TryMigrate:
// staging only ever creates entities, it never mutates existing ones.
func rollbackCreated(dm *DMesh, created [][]mesh.Ent) {
	for i, list := range created {
		m := dm.Parts[i].M
		for j := len(list) - 1; j >= 0; j-- {
			m.Destroy(list[j])
		}
	}
}

// Migrate moves mesh elements between parts according to per-local-part
// plans. It is TryMigrate with failures escalated to panics; callers
// that want to survive an aborted migration use TryMigrate directly.
func Migrate(dm *DMesh, plans []Plan) {
	if err := TryMigrate(dm, plans); err != nil {
		panic(err)
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
// collective abort vote. A failure before commit (a corrupt off-node
// frame, a closure that failed validation) rolls back the staged
// entities on every rank and returns an error wrapping
// ErrMigrateAborted, leaving the source DMesh Verify-intact. Only after
// the votes pass does TryMigrate destroy migrated elements and restitch
// remote links.
func TryMigrate(dm *DMesh, plans []Plan) error {
	defer dm.Ctx.Span("partition.migrate").End()
	tr := dm.Ctx.Trace()
	d := dm.Dim
	for _, part := range dm.Parts {
		if part.nGhosts > 0 {
			panic("partition: migration with ghosts present; call RemoveGhosts first")
		}
	}

	// Normalize plans: drop self-moves, validate. This is the one read of
	// the Plan maps; from here every per-entity fact lives in the parts'
	// residence tables. els[i] lists part i's moving elements by
	// (destination, element), the order step 3 ships them in; a moving
	// element's run is its destination.
	tabs := make([]resTable, len(dm.Parts))
	defer func() {
		for i := range tabs {
			tabs[i].reset()
		}
	}()
	els := make([][]mesh.Ent, len(dm.Parts))
	var moves []move // one part's normalized plan
	var totalMoved int64
	for i, part := range dm.Parts {
		t := &tabs[i]
		t.idx = &part.resIdx
		if i >= len(plans) {
			continue
		}
		moves = slices.Grow(moves[:0], len(plans[i]))
		for el, q := range plans[i] {
			if int(q) < 0 || int(q) >= dm.NParts() {
				panic(fmt.Sprintf("partition: plan sends %v to invalid part %d", el, q))
			}
			if el.Dim() != d {
				panic(fmt.Sprintf("partition: plan contains non-element %v", el))
			}
			if q != part.M.Part() {
				moves = append(moves, move{el: el, to: q})
			}
		}
		slices.SortFunc(moves, func(a, b move) int {
			return cmp.Or(cmp.Compare(a.to, b.to), a.el.Compare(b.el))
		})
		els[i] = make([]mesh.Ent, len(moves))
		for j, mv := range moves {
			els[i][j] = mv.el
		}
		// The table will hold the moving elements and their closure.
		bound := closureBound(part.M, els[i], d)
		t.reserve(len(moves) + bound[0] + bound[1] + bound[2])
		for _, mv := range moves {
			t.add(mv.el, mv.to)
		}
		totalMoved += int64(len(moves))
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
	// closures[i] is the downward closure of part i's moving elements,
	// per dimension, ascending: who announces in step 2 and who may be
	// orphaned in step 4.
	closures := make([][3][]mesh.Ent, len(dm.Parts))
	for i, part := range dm.Parts {
		m, t := part.M, &tabs[i]
		closureLevels(&closures[i], m, els[i], d, t.touch)
		for _, level := range closures[i] {
			for _, e := range level {
				contribute(t, m, e)
			}
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
	sendContrib := func(ph *phase, part *Part, t *resTable, e mesh.Ent) {
		m := part.M
		peers = m.AppendRemoteParts(e, peers[:0])
		for _, r := range peers {
			b := ph.to(m.Part(), r)
			b.Byte(byte(e.Dim()))
			b.Int64(part.Gid(e))
			b.Int32s(t.res(e))
		}
	}
	var localErr error
	ph := dm.beginPhase()
	for i, part := range dm.Parts {
		for _, level := range closures[i] {
			for _, e := range level {
				if part.M.IsShared(e) {
					sendContrib(ph, part, &tabs[i], e)
				}
			}
		}
	}
	var vals []int32 // contribution decode scratch
	// applyContrib merges one announcement message; entities heard of
	// here for the first time are appended to *fresh (when non-nil).
	applyContrib := func(msg partMsg, fresh *[]mesh.Ent) {
		part := dm.LocalPart(msg.To)
		t := &tabs[dm.localIndex(msg.To)]
		for !msg.Data.Empty() {
			dd := int(msg.Data.Byte())
			gid := msg.Data.Int64()
			vals = msg.Data.AppendInt32s(vals[:0])
			e, ok := part.FindGid(dd, gid)
			if !ok {
				panic(fmt.Sprintf("partition: contribution for unknown gid %d dim %d on part %d",
					gid, dd, msg.To))
			}
			if t.touch(e) {
				// First word of this entity here: fold in the local
				// contribution and remember to reply in round two.
				contribute(t, part.M, e)
				if fresh != nil {
					*fresh = append(*fresh, e)
				}
			}
			for _, v := range vals {
				t.add(e, v)
			}
		}
	}
	roundTwo := make([][]mesh.Ent, len(dm.Parts))
	localErr = catchStage(func() {
		for _, msg := range ph.exchange() {
			applyContrib(msg, &roundTwo[dm.localIndex(msg.To)])
		}
	})
	// A rank whose round-one decode failed still takes part in the
	// round-two exchange (with nothing to send) so the collective
	// schedule stays aligned all the way to the abort vote.
	if localErr == nil {
		for i, part := range dm.Parts {
			for _, e := range roundTwo[i] {
				sendContrib(ph, part, &tabs[i], e)
			}
		}
	}
	if err := catchStage(func() {
		for _, msg := range ph.exchange() {
			applyContrib(msg, nil)
		}
	}); localErr == nil {
		localErr = err
	}
	if err := voteAbort(dm, localErr, "staging residence updates"); err != nil {
		// Nothing has been created or destroyed yet; the vote is the
		// only cleanup needed.
		tr.Point("migrate.abort", 1)
		return err
	}
	tr.Point("migrate.residence-voted", 1)

	// Step 3: ship moving elements with closures, grouped per
	// destination part (runs of equal destination in els).
	var shipped [3][]mesh.Ent // one destination's closure, reused by the next
	for i, part := range dm.Parts {
		t := &tabs[i]
		for lo := 0; lo < len(els[i]); {
			q, hi := t.res(els[i][lo])[0], lo+1
			for hi < len(els[i]) && t.res(els[i][hi])[0] == q {
				hi++
			}
			packElements(ph.to(part.M.Part(), q), dm, i, els[i][lo:hi], t, int32(lo)+1, &shipped)
			lo = hi
		}
	}
	created := make([][]mesh.Ent, len(dm.Parts))
	localErr = catchStage(func() {
		msgs := ph.exchange()
		// Every arriving record enters its part's table and may create
		// an entity; no more can arrive than edge records, the smallest,
		// fit in the payloads.
		arriving := make([]int, len(dm.Parts))
		for _, msg := range msgs {
			arriving[dm.localIndex(msg.To)] += msg.Data.Remaining() / recordBytes(mesh.Edge, 0)
		}
		for i, n := range arriving {
			tabs[i].reserve(n)
			created[i] = make([]mesh.Ent, 0, n)
		}
		for _, msg := range msgs {
			li := dm.localIndex(msg.To)
			unpackElements(dm, msg, &tabs[li], &created[li])
		}
	})
	if err := voteAbort(dm, localErr, "shipping element closures"); err != nil {
		rollbackCreated(dm, created)
		tr.Point("migrate.abort", 2)
		return err
	}
	// Commit point reached: stage marks 1/2 are the abort votes passed,
	// mark 3 is the irreversible destroy-and-restitch step starting.
	tr.Point("migrate.commit", 3)

	// Commit point: every rank has staged and validated its incoming
	// data. The destructive steps below run only on a unanimous vote.
	// They destroy orphaned boundary copies and rewrite remote links and
	// ownership on entities this part does not own — that is the
	// protocol, so sanctioned for the sanitizer.
	defer dm.suspendGuards()()

	// Step 4: remove migrated elements and orphaned closure entities.
	for i, part := range dm.Parts {
		m := part.M
		slices.SortFunc(els[i], mesh.Ent.Compare)
		for _, el := range els[i] {
			m.Destroy(el)
		}
		for dd := d - 1; dd >= 0; dd-- {
			for _, e := range closures[i][dd] {
				if m.Alive(e) && !m.HasUp(e) {
					m.Destroy(e)
				}
			}
		}
	}

	// Step 5: rebuild remote copies and ownership where residence
	// changed. The candidates are the surviving entities of the table:
	// retained entities with a staged residence and received ones, whose
	// runs unpackElements merged into the same place.
	type fix struct {
		e     mesh.Ent
		owner int32
	}
	fixes := make([][]fix, len(dm.Parts))
	var cand []mesh.Ent
	var current []int32 // residence-by-links scratch
	for i, part := range dm.Parts {
		m, t := part.M, &tabs[i]
		self := m.Part()
		cand = slices.Grow(cand[:0], len(t.entries))
		for _, en := range t.entries {
			if m.Alive(en.e) {
				cand = append(cand, en.e)
			}
		}
		slices.SortFunc(cand, mesh.Ent.Compare)
		for _, e := range cand {
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
			fixes[i] = append(fixes[i], fix{e: e, owner: res[0]})
			for _, q := range res {
				if q == self {
					continue
				}
				b := ph.to(self, q)
				b.Byte(byte(e.Dim()))
				b.Int64(part.Gid(e))
				b.Byte(byte(e.T))
				b.Int32(e.I)
			}
		}
	}
	for _, msg := range ph.exchange() {
		part := dm.LocalPart(msg.To)
		for !msg.Data.Empty() {
			dd := int(msg.Data.Byte())
			gid := msg.Data.Int64()
			rt := mesh.Type(msg.Data.Byte())
			ri := msg.Data.Int32()
			e, ok := part.FindGid(dd, gid)
			if !ok {
				panic(fmt.Sprintf("partition: stitch for unknown gid %d dim %d on part %d",
					gid, dd, msg.To))
			}
			part.M.SetRemote(e, msg.From, mesh.Ent{T: rt, I: ri})
		}
	}
	for i, part := range dm.Parts {
		for _, f := range fixes[i] {
			part.M.SetOwner(f.e, f.owner)
		}
	}
	dm.Ctx.Count("partition.migrated-elements", totalMoved)
	tr.Point("migrate.moved-elements", totalMoved)
	return nil
}

func (dm *DMesh) localIndex(part int32) int {
	return int(part) - dm.Ctx.Rank()*dm.K
}

// move is one normalized plan entry: element el leaves for part to.
type move struct {
	el mesh.Ent
	to int32
}

// resTable is one part's bookkeeping for one TryMigrate call: the set
// of affected entities and, for each, one sorted run of part ids in a
// call-scoped arena — the destination of a moving element, the staged
// new residence of everything else (local contribution, then remote
// contributions and received residences merged in). An entity is found
// by array index: idx maps its slot to 1 + its position in entries,
// zero meaning absent. idx is the part's persistent column (one int32
// per entity slot, grown on demand); reset zeroes exactly the touched
// slots when the call ends, so a call costs in proportion to what it
// touches, never to the mesh.
type resTable struct {
	idx     *[mesh.TypeCount][]int32
	entries []resEntry
	arena   []int32
}

type resEntry struct {
	e      mesh.Ent
	off, n int32 // the run arena[off:off+n]
	group  int32 // the last packElements group that visited e
}

// entry returns e's entry, nil if e is absent; valid until the next
// touch.
func (t *resTable) entry(e mesh.Ent) *resEntry {
	col := t.idx[e.T]
	if int(e.I) >= len(col) || col[e.I] == 0 {
		return nil
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
	t.entries = append(t.entries, resEntry{e: e})
	col[e.I] = int32(len(t.entries))
	return true
}

// reserve makes room for n more entities and as many run cells.
func (t *resTable) reserve(n int) {
	t.entries = slices.Grow(t.entries, n)
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
	for _, en := range t.entries {
		t.idx[en.e.T][en.e.I] = 0
	}
	*t = resTable{idx: t.idx}
}

// closureBound returns, per dimension below d, an upper bound on the
// downward closure of els: every element bringing all its own vertices,
// edges and faces, and no more than the part holds.
func closureBound(m *mesh.Mesh, els []mesh.Ent, d int) (bound [3]int) {
	for _, el := range els {
		v, f := el.T.VertCount(), el.T.DownCount()
		bound[0] += v
		if d > 1 {
			bound[d-1] += f
		}
		if d == 3 {
			bound[1] += v + f - 2 // Euler's formula for one polyhedron
		}
	}
	for dd := range bound {
		bound[dd] = min(bound[dd], m.Count(dd))
	}
	return bound
}

// closureLevels sets levels[dd], per dimension dd below d, to the
// entities in the downward closures of els that first reports true for
// — a visited-set insert, so each entity appears once — ascending. It
// reuses the arrays levels arrives with, reserved at closureBound.
func closureLevels(levels *[3][]mesh.Ent, m *mesh.Mesh, els []mesh.Ent, d int, first func(mesh.Ent) bool) {
	bound := closureBound(m, els, d)
	for dd := range levels {
		levels[dd] = slices.Grow(levels[dd][:0], bound[dd])
	}
	var buf []mesh.Ent
	for _, el := range els {
		for dd := 0; dd < d; dd++ {
			buf = m.AdjacentTo(el, dd, buf[:0])
			for _, e := range buf {
				if first(e) {
					levels[dd] = append(levels[dd], e)
				}
			}
		}
	}
	for dd := range levels {
		slices.SortFunc(levels[dd], mesh.Ent.Compare)
	}
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

// packElements encodes the closure of the given elements (all bound
// for one destination) plus the elements themselves into b, dimension
// by dimension, each with its run from t: the staged residence, which
// for an element is its destination. group is a nonzero id no other
// packElements call on t uses; it stamps the closure entities visited.
// closure is scratch. The records are counted as the closure is
// collected and b reserved once: exact unless entities carry tag values.
func packElements(b *pcu.Buffer, dm *DMesh, partIdx int, els []mesh.Ent, t *resTable, group int32, closure *[3][]mesh.Ent) {
	part := dm.Parts[partIdx]
	m := part.M
	d := dm.Dim
	size := 1 + 4*(d+1) // empty tag table, level counts
	closureLevels(closure, m, els, d, func(e mesh.Ent) bool {
		en := t.entry(e)
		if en.group == group {
			return false
		}
		en.group = group
		size += recordBytes(e.T, int(en.n))
		return true
	})
	for _, el := range els {
		size += recordBytes(el.T, 1)
	}
	b.Grow(size)
	movable := writeTagTable(b, m)
	var gids []int64 // down-adjacency gid scratch, bulk-packed per entity
	var down []mesh.Ent
	for dd := 0; dd <= d; dd++ {
		level := els
		if dd < d {
			level = closure[dd]
		}
		b.Int32(int32(len(level)))
		for _, e := range level {
			b.Byte(byte(e.T))
			b.Int64(part.Gid(e))
			c := m.Classification(e)
			b.Byte(byte(int8(c.Dim) + 1)) // -1..3 -> 0..4
			b.Int32(c.Tag)
			b.Int32s(t.res(e))
			if dd == 0 {
				p := m.Coord(e)
				b.Float64(p.X)
				b.Float64(p.Y)
				b.Float64(p.Z)
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
	}
}

// unpackElements decodes one element-transfer message into the
// destination part, creating missing entities and merging the new
// residence of every transferred entity into res. Tag data accompanies
// every entity; it is applied to newly created copies (existing copies
// keep their own values). Every created entity is appended to createdLog
// in creation order so an aborted migration can roll the staging back.
func unpackElements(dm *DMesh, msg partMsg, res *resTable, createdLog *[]mesh.Ent) {
	part := dm.LocalPart(msg.To)
	m := part.M
	d := dm.Dim
	r := msg.Data
	table := readTagTable(r, m)
	var resVals []int32    // residence-set decode scratch
	var gidScratch []int64 // down-adjacency gid decode scratch
	var down []mesh.Ent    // and the handles they resolve to
	for dd := 0; dd <= d; dd++ {
		n := int(r.Int32())
		// The level count, capped by what the bytes left could carry,
		// sizes the mesh: the part may hold some of these already.
		room := max(0, min(n, r.Remaining()/recordBytes(mesh.Edge, 0)))
		reserved := mesh.TypeCount
		for k := 0; k < n; k++ {
			t := mesh.Type(r.Byte())
			if t != reserved {
				part.reserve(t, room-k)
				reserved = t
			}
			gid := r.Int64()
			cdim := int8(r.Byte()) - 1
			ctag := r.Int32()
			resVals = r.AppendInt32s(resVals[:0])
			cls := gmi.Ref{Dim: cdim, Tag: ctag}
			if dd == 0 {
				x, y, z := r.Float64(), r.Float64(), r.Float64()
				e, ok := part.FindGid(0, gid)
				if !ok {
					e = m.CreateVertex(cls, vec.V{X: x, Y: y, Z: z})
					part.setGid(e, gid)
					*createdLog = append(*createdLog, e)
				}
				applyEntityTags(r, m, table, e, !ok)
				for _, q := range resVals {
					res.add(e, q)
				}
				continue
			}
			gidScratch = r.AppendInt64s(gidScratch[:0])
			down = down[:0]
			missing := false
			for _, dg := range gidScratch {
				de, ok := part.FindGid(dd-1, dg)
				if !ok {
					missing = true
				}
				down = append(down, de)
			}
			if missing {
				// Recoverable: the abort vote rolls the staging back.
				panic(migrateLocalError{fmt.Errorf(
					"partition: entity gid %d dim %d arrived before its closure", gid, dd)})
			}
			e, ok := part.FindGid(dd, gid)
			if !ok {
				e = m.CreateEntity(t, cls, down)
				part.setGid(e, gid)
				*createdLog = append(*createdLog, e)
			}
			applyEntityTags(r, m, table, e, !ok)
			for _, q := range resVals {
				res.add(e, q)
			}
		}
	}
	r.Done()
}
