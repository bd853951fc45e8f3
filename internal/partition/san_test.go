package partition

import (
	"errors"
	"fmt"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/san"
	"github.com/fastmath/pumi-go/internal/telemetry"
)

// TestSanitizedProtocols: distribution, migration, shared sync and
// reduce, ghosting, tag sync and ghost removal all run clean under the
// full sanitizer — every non-owner write the protocols perform goes
// through a sanctioned window, and the collective schedule cross-checks
// at every sync point. The sanitized world runs the production wire
// format: the boundary exchanges must compile plans and deliver the
// right values through them.
func TestSanitizedProtocols(t *testing.T) {
	san.Enable()
	defer san.Disable()
	run := func() uint64 {
		reg := telemetry.NewRegistry()
		stats, err := pcu.RunOpt(2, pcu.Options{Sanitize: true, Metrics: reg}, func(ctx *pcu.Ctx) error {
			model := gmi.Box(4, 1, 1)
			dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
				return meshgen.Box3D(model, 4, 2, 2)
			}, 2, 4)
			if err := Verify(dm); err != nil {
				return err
			}
			for _, part := range dm.Parts {
				m := part.M
				tag := m.Tags.Find("val")
				if tag == nil {
					var err error
					tag, err = m.Tags.Create("val", ds.TagFloat, 0)
					if err != nil {
						return err
					}
				}
				for el := range m.Elements() {
					m.Tags.SetFloat(tag, el, float64(m.Part())+1)
				}
			}
			if err := sharedRoundTrip(dm); err != nil {
				return err
			}
			Ghost(dm, 0, 1)
			SyncGhostFloatTag(dm, "val")
			RemoveGhosts(dm)
			return Verify(dm)
		})
		if err != nil {
			t.Fatalf("sanitized protocol run failed: %v", err)
		}
		if reg.Counter("partition.plan.miss").Value() == 0 {
			t.Fatal("sanitized world compiled no boundary plan")
		}
		return stats.SanHash
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Fatalf("sanitized runs not reproducible: %#x vs %#x", a, b)
	}
}

// sharedRoundTrip pushes every shared vertex's gid from its owner to
// the copies and counts the copies back at the owner, checking both
// directions value by value.
func sharedRoundTrip(dm *DMesh) error {
	dims := []int{0}
	got := make([]map[mesh.Ent]float64, len(dm.Parts))
	for i := range got {
		got[i] = map[mesh.Ent]float64{}
	}
	li := func(p *Part) int { return dm.localIndex(p.M.Part()) }
	SyncShared(dm, dims,
		func(p *Part, e mesh.Ent, b *pcu.Buffer) { b.Float64(float64(p.Gid(e))) },
		func(p *Part, e mesh.Ent, r *pcu.Reader) { got[li(p)][e] = r.Float64() })
	for i, part := range dm.Parts {
		for e := range part.M.PartBoundary(0) {
			if part.M.IsOwned(e) {
				continue
			}
			if v, ok := got[i][e]; !ok || v != float64(part.Gid(e)) {
				return fmt.Errorf("part %d: synced copy %v holds %v, want gid %d", part.M.Part(), e, v, part.Gid(e))
			}
		}
		clear(got[i])
	}
	ReduceShared(dm, dims,
		func(p *Part, e mesh.Ent, b *pcu.Buffer) { b.Float64(1) },
		func(p *Part, e mesh.Ent, r *pcu.Reader) { got[li(p)][e] += r.Float64() })
	for i, part := range dm.Parts {
		for e := range part.M.PartBoundary(0) {
			if !part.M.IsOwned(e) {
				continue
			}
			if want := float64(part.M.NRemotes(e)); got[i][e] != want {
				return fmt.Errorf("part %d: owner %v reduced %v, want %v", part.M.Part(), e, got[i][e], want)
			}
		}
	}
	return nil
}

// TestSanitizedReduceApplyGuarded: the mesh guards are live on the
// planned path. ReduceShared sanctions no non-owner write (data flows
// to the owner), so an apply callback that touches a copy its part does
// not own fails the run with a *san.OwnershipError.
func TestSanitizedReduceApplyGuarded(t *testing.T) {
	san.Enable()
	defer san.Disable()
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		dm := planWorld(ctx)
		ReduceShared(dm, []int{0},
			func(p *Part, e mesh.Ent, b *pcu.Buffer) { b.Float64(1) },
			func(p *Part, e mesh.Ent, r *pcu.Reader) {
				r.Float64()
				for v := range p.M.PartBoundary(0) {
					if !p.M.IsOwned(v) {
						p.M.SetCoord(v, p.M.Coord(v)) // illegal: owner-only
					}
				}
			})
		ctx.Barrier()
		return nil
	})
	var oe *san.OwnershipError
	if !errors.As(err, &oe) {
		t.Fatalf("non-owner write in a reduce apply: err = %v, want a *san.OwnershipError", err)
	}
	if oe.Kind != "owner" || oe.Op != "coord" {
		t.Fatalf("violation not diagnosed: %+v", oe)
	}
}

// TestSanitizedOwnershipViolation: a direct write to a shared entity
// this part does not own — outside any sanctioned protocol window —
// fails the run with a *san.OwnershipError naming op, entity and the
// offending goroutine.
func TestSanitizedOwnershipViolation(t *testing.T) {
	san.Enable()
	defer san.Disable()
	_, err := pcu.RunOpt(2, pcu.Options{Sanitize: true}, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 2, 1, 1)
		}, 1, 2)
		for _, part := range dm.Parts {
			m := part.M
			for v := range m.PartBoundary(0) {
				if !m.IsOwned(v) {
					m.SetCoord(v, m.Coord(v)) // illegal: owner-only
				}
			}
		}
		ctx.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("non-owner write passed the sanitizer")
	}
	if !errors.Is(err, san.ErrOwnership) {
		t.Fatalf("error does not match san.ErrOwnership: %v", err)
	}
	var oe *san.OwnershipError
	if !errors.As(err, &oe) {
		t.Fatalf("error carries no *san.OwnershipError: %v", err)
	}
	if oe.Kind != "owner" || oe.Op != "coord" || oe.GID == 0 {
		t.Fatalf("violation not diagnosed: %+v", oe)
	}
}

// TestSanitizedCheckpointAssemble: saving and reassembling a
// distributed mesh is clean under the sanitizer (the restitch step
// writes remote links on entities owned elsewhere through a sanctioned
// window).
func TestSanitizedCheckpointAssemble(t *testing.T) {
	san.Enable()
	defer san.Disable()
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 2, 1, 1)
		}, 1, 2)
		// Rebuild the remote links the way a checkpoint restore does:
		// record residence, clear links, reassemble by gid.
		res := make([]map[mesh.Ent][]int32, len(dm.Parts))
		for i, part := range dm.Parts {
			m := part.M
			res[i] = map[mesh.Ent][]int32{}
			for d := 0; d <= dm.Dim; d++ {
				for e := range m.PartBoundary(d) {
					res[i][e] = m.Residence(e).Values()
				}
			}
			resume := m.SuspendGuard()
			for d := 0; d <= dm.Dim; d++ {
				for e := range m.Iter(d) {
					m.ClearRemotes(e)
				}
			}
			resume()
		}
		dm2, err := Assemble(ctx, dm.Model, dm.Dim, dm.K, dm.Parts, res)
		if err != nil {
			return err
		}
		if err := Verify(dm2); err != nil {
			return fmt.Errorf("after reassembly: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
