package partition

import (
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/san"
	"github.com/fastmath/pumi-go/internal/telemetry"
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
	reg := telemetry.NewRegistry()
	misses := reg.Counter("partition.plan.miss")
	_, err := pcu.RunOpt(4, pcu.Options{Metrics: reg}, func(ctx *pcu.Ctx) error {
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

		// A no-op ownership write still bumps the topology epoch and
		// must invalidate the plan on the mutated rank.
		var bv mesh.Ent
		for e := range part.M.PartBoundary(0) {
			bv = e
			break
		}
		part.M.SetOwner(bv, part.M.Owner(bv))
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
		// logical answer (the mutation is a no-op ownership write).
		var bv mesh.Ent
		for e := range m.PartBoundary(0) {
			bv = e
			break
		}
		m.SetOwner(bv, m.Owner(bv))
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
// the damage — sanitizer off and on, since checkPlans is the one
// validator of the one wire format.
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
					pl := dm.boundaryPlan([]int{0}, dirSync)
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
					dm.InvalidatePlans()
					return Verify(dm)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
