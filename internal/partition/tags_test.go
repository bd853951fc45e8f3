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
)

// TestMigrationSlotReuseKeepsTagsExact ships a partly tagged mesh back
// and forth, so arriving entities land in slots departed ones freed:
// an element must read tagged exactly when it was tagged at the start,
// with its own value, and each part's CountTagged must equal the tagged
// elements it holds.
func TestMigrationSlotReuseKeepsTagsExact(t *testing.T) {
	tagged := func(m *mesh.Mesh, el mesh.Ent) bool { return m.Centroid(el).Y < 0.5 }
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		total := 0
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			serial := meshgen.Box3D(model, 4, 2, 2)
			w, _ := serial.Tags.Create("w", ds.TagFloat, 0)
			ids, _ := serial.Tags.Create("ids", ds.TagIntSlice, 2)
			for el := range serial.Elements() {
				if tagged(serial, el) {
					c := serial.Centroid(el)
					serial.Tags.SetFloat(w, el, c.X+10*c.Z)
					serial.Tags.SetInts(ids, el, []int64{int64(1000 * c.X), int64(1000 * c.Z)})
					total++
				}
			}
			return serial
		}, 1, 2)
		check := func(when string) error {
			held := 0
			for _, part := range dm.Parts {
				m := part.M
				w, ids := m.Tags.Find("w"), m.Tags.Find("ids")
				n := 0
				for el := range m.Elements() {
					c := m.Centroid(el)
					v, ok := m.Tags.GetFloat(w, el)
					iv, iok := m.Tags.GetInts(ids, el)
					if want := tagged(m, el); ok != want || iok != want {
						return fmt.Errorf("%s: part %d element %v tagged=%v/%v, want %v", when, m.Part(), el, ok, iok, want)
					} else if !want {
						continue
					}
					if v != c.X+10*c.Z || iv[0] != int64(1000*c.X) || iv[1] != int64(1000*c.Z) {
						return fmt.Errorf("%s: part %d element at %v carries %g %v", when, m.Part(), c, v, iv)
					}
					n++
				}
				if got := m.Tags.CountTagged(w); got != n {
					return fmt.Errorf("%s: part %d CountTagged(w) = %d, holds %d tagged elements", when, m.Part(), got, n)
				}
				if got := m.Tags.CountTagged(ids); got != n {
					return fmt.Errorf("%s: part %d CountTagged(ids) = %d, holds %d tagged elements", when, m.Part(), got, n)
				}
				held += n
			}
			if sum := int(pcu.SumInt64(ctx, int64(held))); ctx.Rank() == 0 && sum != total {
				return fmt.Errorf("%s: %d tagged elements across parts, want %d", when, sum, total)
			}
			return nil
		}
		if err := check("after distribution"); err != nil {
			return err
		}
		// Swap the halves twice: every element leaves its part and a
		// foreign one takes a freed slot, tagged or not.
		for pass := 0; pass < 2; pass++ {
			plans := make([]Plan, len(dm.Parts))
			for i, part := range dm.Parts {
				plans[i] = Plan{}
				for el := range part.M.Elements() {
					plans[i][el] = 1 - part.M.Part()
				}
			}
			if err := TryMigrate(dm, plans); err != nil {
				return err
			}
			if err := check(fmt.Sprintf("after swap %d", pass+1)); err != nil {
				return err
			}
		}
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSyncGhostFloatTagSteadyStateZeroAlloc pins one solver halo step
// — SyncGhostFloatTag on a ghosted 2-rank box — at zero allocations
// once the ghost plan is hot: reading the owners' values and storing
// them on the ghosts index tag columns, nothing more.
func TestSyncGhostFloatTagSteadyStateZeroAlloc(t *testing.T) {
	allocGate(t)
	const (
		warmup = 4
		runs   = 50
	)
	var avg float64
	_, err := pcu.RunOpt(2, pcu.Options{StallTimeout: -1}, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 4, 3, 3)
		}, 1, 2)
		for _, part := range dm.Parts {
			m := part.M
			tag, err := m.Tags.Create("u", ds.TagFloat, 0)
			if err != nil {
				return err
			}
			for el := range m.Elements() {
				m.Tags.SetFloat(tag, el, float64(el.I))
			}
		}
		Ghost(dm, 0, 1)
		if dm.Parts[0].NGhosts() == 0 {
			return fmt.Errorf("rank %d has no ghosts to sync", ctx.Rank())
		}
		step := func() { SyncGhostFloatTag(dm, "u") }
		for i := 0; i < warmup; i++ {
			step()
		}
		if ctx.Rank() == 0 {
			avg = testing.AllocsPerRun(runs, step)
		} else {
			// AllocsPerRun calls its function runs+1 times; the sync
			// is collective, so the other rank steps exactly as often.
			for i := 0; i < runs+1; i++ {
				step()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("steady-state SyncGhostFloatTag: %.1f allocs/step, want 0", avg)
	}
}

// TestSanitizedTagWriteOwnership: a tag write lands in a dense column
// without touching the mesh proper, so the only thing standing between
// a non-owner and a shared entity's value is the table's OnSet hook —
// it must still reach the sanitizer.
func TestSanitizedTagWriteOwnership(t *testing.T) {
	san.Enable()
	defer san.Disable()
	_, err := pcu.RunOpt(2, pcu.Options{Sanitize: true}, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 2, 1, 1)
		}, 1, 2)
		for _, part := range dm.Parts {
			m := part.M
			tag, err := m.Tags.Create("u", ds.TagFloat, 0)
			if err != nil {
				return err
			}
			for v := range m.PartBoundary(0) {
				if !m.IsOwned(v) {
					m.Tags.SetFloat(tag, v, 1) // illegal: owner-only
				}
			}
		}
		ctx.Barrier()
		return nil
	})
	var oe *san.OwnershipError
	if !errors.As(err, &oe) {
		t.Fatalf("non-owner tag write: err = %v, want a *san.OwnershipError", err)
	}
	if oe.Kind != "owner" || oe.Op != "tag" {
		t.Fatalf("violation not diagnosed as a tag write: %+v", oe)
	}
}
