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

	// Normalize plans: drop self-moves, validate.
	dests := make([]Plan, len(dm.Parts))
	for i, part := range dm.Parts {
		dests[i] = Plan{}
		var plan Plan
		if i < len(plans) {
			plan = plans[i]
		}
		for el, q := range plan {
			if int(q) < 0 || int(q) >= dm.NParts() {
				panic(fmt.Sprintf("partition: plan sends %v to invalid part %d", el, q))
			}
			if el.Dim() != d {
				panic(fmt.Sprintf("partition: plan contains non-element %v", el))
			}
			if q != part.M.Part() {
				dests[i][el] = q
			}
		}
	}

	// Step 1: local residence contributions, computed only for the
	// entities adjacent to moving elements (migration cost must scale
	// with the move, not the mesh — ParMA runs many small migrations).
	// contrib(e) = destinations of ALL local elements adjacent to e.
	contribs := make([]map[mesh.Ent]ds.IntSet, len(dm.Parts))
	var ups, closure []mesh.Ent // adjacency scratch, reused across entities
	localContrib := func(i int, m *mesh.Mesh, e mesh.Ent) ds.IntSet {
		var s ds.IntSet
		self := m.Part()
		ups = m.AdjacentTo(e, d, ups[:0])
		for _, up := range ups {
			if dst, moving := dests[i][up]; moving {
				s.Add(dst)
			} else {
				s.Add(self)
			}
		}
		return s
	}
	for i, part := range dm.Parts {
		m := part.M
		contrib := map[mesh.Ent]ds.IntSet{}
		for el := range dests[i] {
			for dd := 0; dd < d; dd++ {
				closure = m.AdjacentTo(el, dd, closure[:0])
				for _, e := range closure {
					if _, done := contrib[e]; !done {
						contrib[e] = localContrib(i, m, e)
					}
				}
			}
		}
		contribs[i] = contrib
	}

	// Step 2: exchange contributions across current residence parts of
	// the affected shared entities. Two rounds: parts with moving
	// elements announce their contributions to every copy; any copy
	// that received an announcement without having sent one replies
	// with its own contribution to every copy, so all copies end up
	// with the complete new residence set.
	newRes := make([]map[mesh.Ent]ds.IntSet, len(dm.Parts))
	for i := range newRes {
		newRes[i] = map[mesh.Ent]ds.IntSet{}
		for e, s := range contribs[i] {
			newRes[i][e] = s.Clone()
		}
	}
	sendContrib := func(ph *phase, part *Part, e mesh.Ent, s ds.IntSet) {
		m := part.M
		for _, r := range m.RemoteParts(e) {
			b := ph.to(m.Part(), r)
			b.Byte(byte(e.Dim()))
			b.Int64(part.Gid(e))
			b.Int32s(s.Values())
		}
	}
	var localErr error
	ph := dm.beginPhase()
	for i, part := range dm.Parts {
		m := part.M
		ents := sortedEnts(contribs[i])
		for _, e := range ents {
			if m.IsShared(e) {
				sendContrib(ph, part, e, contribs[i][e])
			}
		}
	}
	applyContrib := func(msg partMsg) []mesh.Ent {
		part := dm.LocalPart(msg.To)
		li := dm.localIndex(msg.To)
		var fresh []mesh.Ent
		for !msg.Data.Empty() {
			dd := int(msg.Data.Byte())
			gid := msg.Data.Int64()
			vals := msg.Data.Int32s()
			e, ok := part.FindGid(dd, gid)
			if !ok {
				panic(fmt.Sprintf("partition: contribution for unknown gid %d dim %d on part %d",
					gid, dd, msg.To))
			}
			s, seen := newRes[li][e]
			if !seen {
				// First word of this entity here (it enters newRes below,
				// so it is fresh only once): fold in the local
				// contribution and remember to reply in round two.
				s = localContrib(li, part.M, e)
				fresh = append(fresh, e)
			}
			for _, v := range vals {
				s.Add(v)
			}
			newRes[li][e] = s
		}
		return fresh
	}
	roundTwo := make([][]mesh.Ent, len(dm.Parts))
	localErr = catchStage(func() {
		for _, msg := range ph.exchange() {
			li := dm.localIndex(msg.To)
			roundTwo[li] = append(roundTwo[li], applyContrib(msg)...)
		}
	})
	// A rank whose round-one decode failed still takes part in the
	// round-two exchange (with nothing to send) so the collective
	// schedule stays aligned all the way to the abort vote.
	ph = dm.beginPhase()
	if localErr == nil {
		for i, part := range dm.Parts {
			for _, e := range roundTwo[i] {
				sendContrib(ph, part, e, newRes[i][e])
			}
		}
	}
	if err := catchStage(func() {
		for _, msg := range ph.exchange() {
			applyContrib(msg)
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
	// destination part.
	ph = dm.beginPhase()
	for i, part := range dm.Parts {
		m := part.M
		byDest := map[int32][]mesh.Ent{}
		for el, q := range dests[i] {
			byDest[q] = append(byDest[q], el)
		}
		qs := make([]int32, 0, len(byDest))
		for q := range byDest {
			qs = append(qs, q)
		}
		slices.Sort(qs)
		for _, q := range qs {
			els := byDest[q]
			slices.SortFunc(els, mesh.Ent.Compare)
			packElements(ph.to(m.Part(), q), dm, i, q, els, newRes[i])
		}
	}
	received := make([]map[mesh.Ent]ds.IntSet, len(dm.Parts))
	for i := range received {
		received[i] = map[mesh.Ent]ds.IntSet{}
	}
	created := make([][]mesh.Ent, len(dm.Parts))
	localErr = catchStage(func() {
		for _, msg := range ph.exchange() {
			li := dm.localIndex(msg.To)
			unpackElements(dm, msg, received[li], &created[li])
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
		var els []mesh.Ent
		for el := range dests[i] {
			els = append(els, el)
		}
		slices.SortFunc(els, mesh.Ent.Compare)
		affected := closureLevels(m, els, d)
		for _, el := range els {
			m.Destroy(el)
		}
		for dd := d - 1; dd >= 0; dd-- {
			for _, e := range affected[dd] {
				if m.Alive(e) && !m.HasUp(e) {
					m.Destroy(e)
				}
			}
		}
	}

	// Step 5: rebuild remote copies and ownership where residence
	// changed. Received entities always restitch.
	ph = dm.beginPhase()
	type fix struct {
		e   mesh.Ent
		res ds.IntSet
	}
	fixes := make([][]fix, len(dm.Parts))
	for i, part := range dm.Parts {
		m := part.M
		self := m.Part()
		// Merge retained-entity residence changes and received entities.
		cand := map[mesh.Ent]ds.IntSet{}
		for e, s := range newRes[i] {
			if m.Alive(e) {
				cand[e] = s
			}
		}
		for e, s := range received[i] {
			if m.Alive(e) {
				merged := s.Clone()
				if prior, ok := cand[e]; ok {
					merged = merged.Union(prior)
				}
				cand[e] = merged
			}
		}
		var ents []mesh.Ent
		for e := range cand {
			ents = append(ents, e)
		}
		slices.SortFunc(ents, mesh.Ent.Compare)
		for _, e := range ents {
			res := cand[e]
			// Restitch exactly when the residence set changed. This
			// decision is symmetric across all copies: newRes is
			// globally consistent and pre-migration remote links are
			// symmetric, so either every copy restitches or none does.
			// A freshly created copy always restitches (its local
			// residence starts as just this part).
			if res.Equal(m.Residence(e)) {
				continue
			}
			m.ClearRemotes(e)
			fixes[i] = append(fixes[i], fix{e: e, res: res})
			for _, q := range res.Values() {
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
			part.M.SetOwner(f.e, f.res.Min())
		}
	}
	var totalMoved int64
	for i := range dests {
		totalMoved += int64(len(dests[i]))
	}
	dm.Ctx.Count("partition.migrated-elements", totalMoved)
	tr.Point("migrate.moved-elements", totalMoved)
	return nil
}

func (dm *DMesh) localIndex(part int32) int {
	return int(part) - dm.Ctx.Rank()*dm.K
}

// sortedEnts returns the map's keys in deterministic entity order.
func sortedEnts(m map[mesh.Ent]ds.IntSet) []mesh.Ent {
	out := make([]mesh.Ent, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	slices.SortFunc(out, mesh.Ent.Compare)
	return out
}

// closureLevels returns, per dimension below d, the distinct entities
// in the downward closures of els, ascending.
func closureLevels(m *mesh.Mesh, els []mesh.Ent, d int) [3][]mesh.Ent {
	var levels [3][]mesh.Ent
	var buf []mesh.Ent
	seen := m.NewMarks()
	for _, el := range els {
		for dd := 0; dd < d; dd++ {
			buf = m.AdjacentTo(el, dd, buf[:0])
			for _, e := range buf {
				if seen.Set(e) {
					levels[dd] = append(levels[dd], e)
				}
			}
		}
	}
	for dd := range levels {
		slices.SortFunc(levels[dd], mesh.Ent.Compare)
	}
	return levels
}

// packElements encodes the closure of the given elements plus the
// elements themselves into b, dimension by dimension.
func packElements(b *pcu.Buffer, dm *DMesh, partIdx int, dest int32, els []mesh.Ent, res map[mesh.Ent]ds.IntSet) {
	part := dm.Parts[partIdx]
	m := part.M
	d := dm.Dim
	movable := writeTagTable(b, m)
	closure := closureLevels(m, els, d)
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
			if dd == d {
				b.Int32(1) // residence set {dest}, same wire as Int32s
				b.Int32(dest)
			} else {
				b.Int32s(res[e].Values())
			}
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
// destination part, creating missing entities and recording the new
// residence of every transferred entity. Tag data accompanies every
// entity; it is applied to newly created copies (existing copies keep
// their own values). Every created entity is appended to createdLog in
// creation order so an aborted migration can roll the staging back.
func unpackElements(dm *DMesh, msg partMsg, recvRes map[mesh.Ent]ds.IntSet, createdLog *[]mesh.Ent) {
	part := dm.LocalPart(msg.To)
	m := part.M
	d := dm.Dim
	r := msg.Data
	table := readTagTable(r, m)
	var resScratch []int32 // residence-set decode scratch, consumed by mergeRes
	var gidScratch []int64 // down-adjacency gid decode scratch
	var down []mesh.Ent    // and the handles they resolve to
	for dd := 0; dd <= d; dd++ {
		n := int(r.Int32())
		for k := 0; k < n; k++ {
			t := mesh.Type(r.Byte())
			gid := r.Int64()
			cdim := int8(r.Byte()) - 1
			ctag := r.Int32()
			resVals := r.AppendInt32s(resScratch[:0])
			resScratch = resVals
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
				mergeRes(recvRes, e, resVals)
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
			mergeRes(recvRes, e, resVals)
		}
	}
	r.Done()
}

func mergeRes(recvRes map[mesh.Ent]ds.IntSet, e mesh.Ent, vals []int32) {
	s := recvRes[e]
	for _, v := range vals {
		s.Add(v)
	}
	recvRes[e] = s
}
