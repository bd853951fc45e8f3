package partition

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/san"
)

// Tests of the compiled boundary-exchange plans: correctness of the
// owner-agreed ordering, epoch-driven invalidation, and the zero-alloc
// steady state the plans exist to provide.

// allocGate skips t when allocation counts are not meaningful
// (pattern of internal/pcu/alloc_test.go).
func allocGate(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if san.Enabled() {
		t.Skip("sanitized worlds append to the op log on every exchange")
	}
}

// planWorld builds the standard 4-rank distributed box used by the
// plan tests.
func planWorld(ctx *pcu.Ctx) *DMesh {
	model := gmi.Box(4, 1, 1)
	return distributeByX(ctx, model.Model, func() *mesh.Mesh {
		return meshgen.Box3D(model, 4, 2, 2)
	}, 1, 4)
}

// vertexSlots returns a float slice covering every vertex slot of the
// part, for header-free per-vertex storage in pack/apply closures.
func vertexSlots(m *mesh.Mesh) []float64 {
	maxI := int32(0)
	for v := range m.IterType(mesh.Vertex) {
		if v.I > maxI {
			maxI = v.I
		}
	}
	return make([]float64, maxI+1)
}

// TestSyncSharedPlannedValues checks the planned owner-to-copy push
// end to end: owners send their entity's global id, and every copy
// must receive exactly its own gid — any ordering disagreement between
// the compiled send and recv runs would cross-wire the values.
func TestSyncSharedPlannedValues(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		dm := planWorld(ctx)
		part := dm.Parts[0]
		vals := vertexSlots(part.M)
		for i := range vals {
			vals[i] = -1
		}
		got := 0
		SyncShared(dm, []int{0},
			func(p *Part, e mesh.Ent, b *pcu.Buffer) { b.Float64(float64(p.Gid(e))) },
			func(p *Part, e mesh.Ent, r *pcu.Reader) { vals[e.I] = r.Float64(); got++ })
		m := part.M
		want := 0
		for e := range m.PartBoundary(0) {
			if m.IsOwned(e) {
				continue
			}
			want++
			if vals[e.I] != float64(part.Gid(e)) {
				t.Errorf("rank %d: shared vertex %v got %v, want gid %d", ctx.Rank(), e, vals[e.I], part.Gid(e))
			}
		}
		if got != want {
			t.Errorf("rank %d: applied %d planned records, want %d", ctx.Rank(), got, want)
		}
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReduceSharedPlannedValues checks the planned copy-to-owner
// direction: every copy contributes 1 and each owner must accumulate
// exactly one contribution per remote copy.
func TestReduceSharedPlannedValues(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		dm := planWorld(ctx)
		part := dm.Parts[0]
		sum := vertexSlots(part.M)
		ReduceShared(dm, []int{0},
			func(p *Part, e mesh.Ent, b *pcu.Buffer) { b.Float64(1) },
			func(p *Part, e mesh.Ent, r *pcu.Reader) { sum[e.I] += r.Float64() })
		m := part.M
		for e := range m.PartBoundary(0) {
			if !m.IsOwned(e) {
				continue
			}
			if want := float64(m.NRemotes(e)); sum[e.I] != want {
				t.Errorf("rank %d: owner %v accumulated %v, want %v", ctx.Rank(), e, sum[e.I], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanInvalidation drives the epoch machinery: a second sync round
// reuses the cached plan (no new compile), a boundary mutation forces
// exactly one recompile, and after a migration — epoch bumps on every
// touched part — plans recompile and the full distributed verification
// stays green.
func TestPlanInvalidation(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		misses := ctx.Metrics().Counter("partition.plan.miss")
		dm := planWorld(ctx)
		part := dm.Parts[0]
		vals := vertexSlots(part.M)
		pack := func(p *Part, e mesh.Ent, b *pcu.Buffer) { b.Float64(float64(p.Gid(e))) }
		apply := func(p *Part, e mesh.Ent, r *pcu.Reader) { vals[e.I] = r.Float64() }
		round := func() { SyncShared(dm, []int{0}, pack, apply) }

		// The miss counter is merged across ranks and the sparse
		// exchange is not a barrier, so bracket every read with
		// Barrier to keep non-neighbor ranks' compiles out of deltas.
		round() // compile
		ctx.Barrier()
		miss0 := misses.Value()
		round() // cached
		ctx.Barrier()
		if d := misses.Value() - miss0; d != 0 {
			t.Errorf("unmutated second round recompiled %d plans, want 0", d)
		}
		ctx.Barrier() // keep later rounds' compiles out of the read above

		// A no-op link write (re-setting an existing link) still bumps
		// the topology epoch and must invalidate the plan on the mutated
		// rank.
		var bv mesh.Ent
		for e := range part.M.PartBoundary(0) {
			bv = e
			break
		}
		resetLink(part.M, bv)
		round()
		ctx.Barrier()
		if d := misses.Value() - miss0; d < 1 {
			t.Errorf("post-mutation round recompiled %d plans, want >= 1", d)
		}

		// Migrate everything one part to the right and back: epochs
		// move on every part, plans recompile, verification holds.
		for pass := 0; pass < 2; pass++ {
			plan := Plan{}
			nparts := int32(dm.NParts())
			for el := range part.M.Elements() {
				plan[el] = (part.M.Part() + 1) % nparts
			}
			if err := TryMigrate(dm, []Plan{plan}); err != nil {
				return err
			}
			if err := Verify(dm); err != nil {
				return err
			}
		}
		vals = vertexSlots(part.M)
		round()
		if err := Verify(dm); err != nil {
			return err
		}
		_ = vals
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSyncReduceSteadyStateZeroAlloc pins the planned SyncShared and
// ReduceShared rounds at zero allocations once the plan is hot, rank 0
// measuring while the other ranks run phases in lockstep (pattern of
// internal/pcu/alloc_test.go).
func TestSyncReduceSteadyStateZeroAlloc(t *testing.T) {
	allocGate(t)
	const (
		warmup = 4
		runs   = 50
	)
	var syncAvg, reduceAvg float64
	_, err := pcu.RunOpt(4, pcu.Options{StallTimeout: -1}, func(ctx *pcu.Ctx) error {
		dm := planWorld(ctx)
		vals := vertexSlots(dm.Parts[0].M)
		dims := []int{0}
		pack := func(p *Part, e mesh.Ent, b *pcu.Buffer) { b.Float64(vals[e.I]) }
		applySet := func(p *Part, e mesh.Ent, r *pcu.Reader) { vals[e.I] = r.Float64() }
		applyAdd := func(p *Part, e mesh.Ent, r *pcu.Reader) { vals[e.I] += r.Float64() }
		syncRound := func() { SyncShared(dm, dims, pack, applySet) }
		reduceRound := func() { ReduceShared(dm, dims, pack, applyAdd) }
		for i := 0; i < warmup; i++ {
			syncRound()
			reduceRound()
		}
		if ctx.Rank() == 0 {
			syncAvg = testing.AllocsPerRun(runs, syncRound)
			reduceAvg = testing.AllocsPerRun(runs, reduceRound)
		} else {
			// AllocsPerRun calls its function runs+1 times; the
			// exchange is collective, so every other rank runs exactly
			// as many rounds.
			for i := 0; i < runs+1; i++ {
				syncRound()
			}
			for i := 0; i < runs+1; i++ {
				reduceRound()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if syncAvg != 0 {
		t.Errorf("steady-state planned SyncShared: %.1f allocs/round, want 0", syncAvg)
	}
	if reduceAvg != 0 {
		t.Errorf("steady-state planned ReduceShared: %.1f allocs/round, want 0", reduceAvg)
	}
}

// TestNeighborCachesZeroAlloc pins the cached neighborhood queries:
// between boundary mutations, repeated NeighborRanks and NeighborParts
// calls must return the identical backing data without allocating, and
// a mutation must refresh them.
func TestNeighborCachesZeroAlloc(t *testing.T) {
	allocGate(t)
	_, err := pcu.RunOpt(4, pcu.Options{StallTimeout: -1}, func(ctx *pcu.Ctx) error {
		dm := planWorld(ctx)
		m := dm.Parts[0].M

		r1 := NeighborRanks(dm)
		r2 := NeighborRanks(dm)
		if len(r1) == 0 || len(r2) != len(r1) || &r1[0] != &r2[0] {
			t.Errorf("rank %d: NeighborRanks not served from cache: %v vs %v", ctx.Rank(), r1, r2)
		}
		p1 := m.NeighborParts(0)
		p2 := m.NeighborParts(0)
		if len(p1) == 0 || len(p2) != len(p1) || &p1[0] != &p2[0] {
			t.Errorf("rank %d: NeighborParts not served from cache: %v vs %v", ctx.Rank(), p1, p2)
		}
		if avg := testing.AllocsPerRun(100, func() {
			_ = NeighborRanks(dm)
			_ = m.NeighborParts(0)
		}); avg != 0 {
			t.Errorf("rank %d: cached neighborhood queries: %.1f allocs/op, want 0", ctx.Rank(), avg)
		}

		// A mutation invalidates: the caches recompute to the same
		// logical answer (the mutation is a no-op link write).
		var bv mesh.Ent
		for e := range m.PartBoundary(0) {
			bv = e
			break
		}
		resetLink(m, bv)
		r3 := NeighborRanks(dm)
		p3 := m.NeighborParts(0)
		if len(r3) != len(r1) || len(p3) != len(p1) {
			t.Errorf("rank %d: caches changed answers after no-op mutation", ctx.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckPlansDetectsCorruptPlan is the negative test of the plan
// validator: with a cached sync plan whose recv run has two entries
// swapped, and with one whose run is a record short, Verify must name
// the damage — sanitizer off and on, since Verify's plan checks are the
// one validator of the one wire format.
func TestCheckPlansDetectsCorruptPlan(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(pp *partPlan) bool
	}{
		{"swap", "sync plan order mismatch", func(pp *partPlan) bool {
			for j := range pp.recvPeers {
				if run := pp.recvEnts[pp.recvOff[j]:pp.recvOff[j+1]]; len(run) >= 2 {
					run[0], run[1] = run[1], run[0]
					return true
				}
			}
			return false
		}},
		{"truncate", "sync plan mismatch", func(pp *partPlan) bool {
			// Only the last run can lose its tail without shifting
			// the offsets of the runs after it.
			j := len(pp.recvPeers) - 1
			if j < 0 {
				return false
			}
			pp.recvOff[j+1]--
			return true
		}},
	}
	for _, sanitized := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if sanitized {
				name += "/san"
			}
			t.Run(name, func(t *testing.T) {
				if sanitized {
					san.Enable()
					defer san.Disable()
				}
				err := pcu.Run(4, func(ctx *pcu.Ctx) error {
					dm := planWorld(ctx)
					if err := Verify(dm); err != nil {
						return err
					}
					pl := dm.plan(dimsKey{1, dirSync})
					hit := tc.corrupt(&pl.parts[0])
					if !pcu.Allreduce(ctx, hit, func(a, b bool) bool { return a || b }) {
						t.Errorf("no rank had a recv run to corrupt")
					}
					err := Verify(dm)
					switch {
					case err == nil:
						t.Errorf("rank %d: Verify passed a corrupt plan", ctx.Rank())
					case hit && !strings.Contains(err.Error(), tc.want):
						t.Errorf("rank %d: Verify reported %q, want %q", ctx.Rank(), err, tc.want)
					}
					clear(dm.plans)
					return Verify(dm)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPlannedWireGolden pins the bytes every planned exchange puts on
// the wire: one ghost push, one sync round (vertices and edges, payloads
// of two lengths) and one reduce round on a vertex-ghosted box of 2
// ranks x 2 parts, where every third element is untagged (presence byte
// 0) and part 3 lacks the tag altogether (no sections from it, arriving
// sections decoded and dropped). The bytes are read from the rank
// buffers themselves: each is grown before the round and filled with
// 0x00, then with 0xff before an identical second round, so what the
// round wrote is the prefix on which the two fills agree.
func TestPlannedWireGolden(t *testing.T) {
	const ranks, tapCap = 2, 1 << 16
	want := [3]string{
		"7a1b71fc83eb3a27b32f876cbed84d9e61c110a66d2ea33313bd425f943e5deb", // ghost push
		"9c9b7873a96c6d98b72d5435f389ac3ec524747619b0c8655113c7cd856b21ab", // sync
		"10e28652cfa04b964954c0a2c32f3d08150d23d27f4266d8a2ddfaab1d1185b6", // reduce
	}
	var sent [3][ranks][ranks][]byte // round, sending rank, receiving rank
	err := pcu.Run(ranks, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 4, 2, 2)
		}, 2, 2)
		for _, part := range dm.Parts {
			m := part.M
			u, err := m.Tags.Create("u", ds.TagFloat, 0)
			if err != nil {
				return err
			}
			for el := range m.Elements() {
				if g := part.Gid(el); g%3 != 0 {
					m.Tags.SetFloat(u, el, float64(g)+0.5)
				}
			}
		}
		Ghost(dm, 0, 1)
		// Ghosting ships the tag to every part that receives a tagged
		// element, so part 3 drops it afterwards.
		if ctx.Rank() == 1 {
			m := dm.LocalPart(3).M
			m.Tags.Destroy(m.Tags.Find("u"))
		}
		rounds := [3]func(){
			func() { SyncGhostFloatTag(dm, "u") },
			func() {
				SyncShared(dm, []int{0, 1},
					func(p *Part, e mesh.Ent, b *pcu.Buffer) {
						b.Int64(p.Gid(e))
						if e.Dim() == 1 {
							b.Byte(byte(p.M.Part()))
						}
					},
					func(p *Part, e mesh.Ent, r *pcu.Reader) {
						r.Int64()
						if e.Dim() == 1 {
							r.Byte()
						}
					})
			},
			func() {
				ReduceShared(dm, []int{0},
					func(p *Part, e mesh.Ent, b *pcu.Buffer) { b.Int32(p.M.Part()) },
					func(p *Part, e mesh.Ent, r *pcu.Reader) { r.Int32() })
			},
		}
		// tapped runs one round over filled rank buffers and copies out
		// their whole capacity before any rank can reuse an array.
		tapped := func(round func(), fill byte) [][]byte {
			arrs := make([][]byte, ranks)
			for r := range arrs {
				b := ctx.To(r)
				b.Grow(tapCap)
				arrs[r] = b.Raw()[:tapCap]
				for i := range arrs[r] {
					arrs[r][i] = fill
				}
			}
			round()
			for r := range arrs {
				arrs[r] = slices.Clone(arrs[r])
			}
			ctx.Barrier()
			return arrs
		}
		for i, round := range rounds {
			lo, hi := tapped(round, 0x00), tapped(round, 0xff)
			for r := range lo {
				n := 0
				for n < tapCap && lo[r][n] == hi[r][n] {
					n++
				}
				if n == tapCap {
					return fmt.Errorf("round %d: rank %d wrote past the %d-byte tap", i, ctx.Rank(), tapCap)
				}
				sent[i][ctx.Rank()][r] = lo[r][:n]
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"ghost", "sync", "reduce"} {
		h := sha256.New()
		total := 0
		for from := range sent[i] {
			for to, b := range sent[i][from] {
				fmt.Fprintf(h, "%d>%d:%d;", from, to, len(b))
				h.Write(b)
				total += len(b)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[i] {
			t.Errorf("%s round: %d bytes hash to %s, want %s", name, total, got, want[i])
		}
	}
}

// TestFloatRunCodec round-trips runs of a float tag through the ghost
// push's codec on one mesh, from tag u into tag w: a run alternating
// vertices and edges (one column lookup per change of type), untagged
// entities (presence byte 0), a destination group with no column yet
// (grown by its first store) and one whose column already holds values.
// The write guard hook fires once for the run and once in the SetFloat
// that grows the vertex column, and CountTagged follows the bits set in
// place.
func TestFloatRunCodec(t *testing.T) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	u, _ := m.Tags.Create("u", ds.TagFloat, 0)
	w, _ := m.Tags.Create("w", ds.TagFloat, 0)
	var run []mesh.Ent
	var edges []mesh.Ent
	for e := range m.Iter(1) {
		edges = append(edges, e)
	}
	i := 0
	for v := range m.Iter(0) {
		run = append(run, v, edges[i])
		if i%2 == 0 {
			m.Tags.SetFloat(u, v, float64(i))
		}
		if i%3 == 0 {
			m.Tags.SetFloat(u, edges[i], -float64(i))
		}
		if i%4 == 0 {
			m.Tags.SetFloat(w, edges[i], 99)
		}
		i++
	}
	var b pcu.Buffer
	packFloats(m.Tags, u, run, &b)
	hooked := 0
	m.Tags.OnSet = func(mesh.Ent) { hooked++ }
	r := pcu.NewReader(b.Raw())
	applyFloats(m.Tags, w, run, r)
	r.Done()
	if hooked != 2 {
		t.Errorf("write guard hook fired %d times, want 2: the run and the column growth", hooked)
	}
	tagged := 0
	for j, e := range run {
		want, ok := m.Tags.GetFloat(u, e)
		if !ok && e.Dim() == 1 && (j/2)%4 == 0 {
			want, ok = 99, true // absent: the old value stays
		}
		got, gok := m.Tags.GetFloat(w, e)
		if gok != ok || got != want {
			t.Errorf("%v: w = %v (%v), want %v (%v)", e, got, gok, want, ok)
		}
		if ok {
			tagged++
		}
	}
	if n := m.Tags.CountTagged(w); n != tagged {
		t.Errorf("CountTagged(w) = %d, want %d", n, tagged)
	}

	// A run cut short inside a value, or before a presence byte, fails
	// with the reader's underflow diagnostic, whether the part keeps
	// the values or drops them.
	for _, cut := range []int{1, 8, 9} {
		for _, tag := range []*ds.Tag{w, nil} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "pcu: message underflow") {
						t.Errorf("run cut by %d bytes (tag %v): got %q, want the underflow diagnostic", cut, tag != nil, msg)
					}
				}()
				applyFloats(m.Tags, tag, run, pcu.NewReader(b.Raw()[:b.Len()-cut]))
			}()
		}
	}
}

// TestPlannedSectionFromUnexpectedPeer feeds each codec a section its
// cached plan does not expect — the receiving part's recv runs are
// renamed away from the real peers — and requires the one executor's
// "stale plan?" diagnostic rather than a misapplied payload.
func TestPlannedSectionFromUnexpectedPeer(t *testing.T) {
	for _, dir := range []planDir{dirGhost, dirSync} {
		t.Run(dir.String(), func(t *testing.T) {
			err := pcu.Run(2, func(ctx *pcu.Ctx) error {
				model := gmi.Box(2, 1, 1)
				dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
					return meshgen.Box3D(model, 2, 2, 2)
				}, 1, 2)
				for _, part := range dm.Parts {
					u, _ := part.M.Tags.Create("u", ds.TagFloat, 0)
					for el := range part.M.Elements() {
						part.M.Tags.SetFloat(u, el, 1)
					}
				}
				Ghost(dm, 0, 1)
				round := func() {
					if dir == dirGhost {
						SyncGhostFloatTag(dm, "u")
						return
					}
					SyncShared(dm, []int{0},
						func(p *Part, e mesh.Ent, b *pcu.Buffer) { b.Int64(p.Gid(e)) },
						func(p *Part, e mesh.Ent, r *pcu.Reader) { r.Int64() })
				}
				round() // compiles the plan
				if ctx.Rank() == 1 {
					key := ghostKey
					if dir == dirSync {
						key = dimsKey{mask: 1, dir: dirSync}
					}
					pp := &dm.plans[key].parts[0]
					for j := range pp.recvPeers {
						pp.recvPeers[j] += 100
					}
				}
				round()
				return nil
			})
			want := fmt.Sprintf("%s plan on part 1 expects nothing from part 0 (stale plan?)", dir)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("got %v, want %q", err, want)
			}
		})
	}
}

// resetLink writes e's first link again, unchanged: a mutation that
// moves the topology epoch and nothing else.
func resetLink(m *mesh.Mesh, e mesh.Ent) {
	q := m.AppendRemoteParts(e, nil)[0]
	h, _ := m.RemoteCopy(e, q)
	m.SetRemote(e, q, h)
}
