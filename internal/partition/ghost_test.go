package partition

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
)

func TestGhostOneLayer(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 2, 2, 2)
		}, 1, 2)
		before := GatherCounts(dm, 3)
		Ghost(dm, 0, 1) // vertex-bridged, one layer

		for _, part := range dm.Parts {
			m := part.M
			nGhostEls := 0
			for el := range m.Elements() {
				if m.IsGhost(el) {
					nGhostEls++
					// Every ghost element has a home on the other part.
					home, ok := part.GhostHome(el)
					if !ok {
						return fmt.Errorf("ghost %v has no home", el)
					}
					if home.Part == m.Part() {
						return fmt.Errorf("ghost home on own part")
					}
				}
			}
			if nGhostEls == 0 {
				return fmt.Errorf("part %d got no ghost elements", m.Part())
			}
			// Each slab has 24 own tets; all of the neighbor's tets
			// touch the interface plane by a vertex (grid is 2x2x2),
			// so each part ghosts all 24 neighbor tets.
			if nGhostEls != 24 {
				return fmt.Errorf("part %d has %d ghost elements", m.Part(), nGhostEls)
			}
			if part.NGhosts() == 0 {
				return fmt.Errorf("ghost counter zero")
			}
		}
		// Load statistics unchanged by ghosts.
		after := GatherCounts(dm, 3)
		for p := range before {
			if before[p] != after[p] {
				return fmt.Errorf("ghosts leaked into counts: %v vs %v", before, after)
			}
		}
		if GlobalCount(dm, 3) != 48 {
			return fmt.Errorf("global count changed")
		}
		// Meshes remain structurally consistent.
		for _, part := range dm.Parts {
			if err := part.M.CheckConsistency(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherCountsMatchesWalk holds GatherCounts, which reads the
// mesh's live tallies on a part without ghosts, to a walk counting the
// live non-ghost entities, for every dimension: unghosted, with a layer
// of face-bridged ghosts, and after they are removed.
func TestGatherCountsMatchesWalk(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 4, 2, 2)
		}, 2, 2)
		check := func(state string) error {
			for d := 0; d <= dm.Dim; d++ {
				local := make([]int64, dm.K)
				for i, part := range dm.Parts {
					for e := range part.M.Iter(d) {
						if !part.M.IsGhost(e) {
							local[i]++
						}
					}
				}
				want := slices.Concat(pcu.Allgather(ctx, local)...)
				if got := GatherCounts(dm, d); !slices.Equal(got, want) {
					return fmt.Errorf("%s: dim %d counts %v, walk gives %v", state, d, got, want)
				}
			}
			return nil
		}
		if err := check("unghosted"); err != nil {
			return err
		}
		Ghost(dm, 2, 1)
		for _, part := range dm.Parts {
			if part.NGhosts() == 0 {
				return fmt.Errorf("part %d got no ghosts", part.M.Part())
			}
		}
		if err := check("ghosted"); err != nil {
			return err
		}
		RemoveGhosts(dm)
		return check("unghosted again")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGhostTagSyncAndRemove(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 2, 1, 1)
		}, 1, 2)
		// Tag own elements with the part id, then ghost and sync.
		for _, part := range dm.Parts {
			m := part.M
			tag, err := m.Tags.Create("val", ds.TagFloat, 0)
			if err != nil {
				return err
			}
			for el := range m.Elements() {
				m.Tags.SetFloat(tag, el, float64(m.Part())+1)
			}
		}
		Ghost(dm, 2, 1) // face-bridged
		SyncGhostFloatTag(dm, "val")
		for _, part := range dm.Parts {
			m := part.M
			tag := m.Tags.Find("val")
			for el := range m.Elements() {
				if !m.IsGhost(el) {
					continue
				}
				v, ok := m.Tags.GetFloat(tag, el)
				if !ok {
					return fmt.Errorf("ghost %v missing synced tag", el)
				}
				home, _ := part.GhostHome(el)
				if v != float64(home.Part)+1 {
					return fmt.Errorf("ghost value %g from part %d", v, home.Part)
				}
			}
		}
		// Face-bridged ghosting on the 2x1x1 grid: only tets with a
		// face on the interface move; fewer than vertex-bridged would.
		nGhost := 0
		for _, part := range dm.Parts {
			nGhost += part.NGhosts()
		}
		if nGhost == 0 {
			return fmt.Errorf("no ghosts")
		}
		RemoveGhosts(dm)
		for _, part := range dm.Parts {
			m := part.M
			for d := 0; d <= 3; d++ {
				for e := range m.Iter(d) {
					if m.IsGhost(e) {
						return fmt.Errorf("ghost %v survived removal", e)
					}
				}
			}
			if part.NGhosts() != 0 {
				return fmt.Errorf("ghost counter nonzero after removal")
			}
			if err := m.CheckConsistency(); err != nil {
				return err
			}
		}
		if err := Verify(dm); err != nil {
			return err
		}
		// Migration must work again after ghost removal.
		plans := make([]Plan, len(dm.Parts))
		if err := TryMigrate(dm, plans); err != nil {
			return err
		}
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGhostTwoLayers ghosts one layer, then two, and after each build
// pushes owner values set after it: every ghost must read its home's,
// through a ghost plan that only the topology epoch recompiles.
func TestGhostTwoLayers(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		model := gmi.Box(4, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 8, 2, 2)
		}, 1, 4)
		for _, part := range dm.Parts {
			if _, err := part.M.Tags.Create("u", ds.TagFloat, 0); err != nil {
				return err
			}
		}
		value := func(gid int64, layers int) float64 { return float64(gid*10 + int64(layers)) }
		build := func(layers int) (ghosts int, err error) {
			Ghost(dm, 2, layers)
			for _, part := range dm.Parts {
				m, u := part.M, part.M.Tags.Find("u")
				for el := range m.Elements() {
					if !m.IsGhost(el) {
						m.Tags.SetFloat(u, el, value(part.Gid(el), layers))
					}
				}
			}
			SyncGhostFloatTag(dm, "u")
			for _, part := range dm.Parts {
				m, u := part.M, part.M.Tags.Find("u")
				for el := range m.Elements() {
					if !m.IsGhost(el) {
						continue
					}
					if got, _ := m.Tags.GetFloat(u, el); got != value(part.Gid(el), layers) {
						home, _ := part.GhostHome(el)
						return 0, fmt.Errorf("layers=%d: ghost %v on part %d reads %g, its home on part %d %g",
							layers, el, m.Part(), got, home.Part, value(part.Gid(el), layers))
					}
				}
				ghosts += part.NGhosts()
			}
			return ghosts, nil
		}
		one, err := build(1)
		if err != nil {
			return err
		}
		RemoveGhosts(dm)
		two, err := build(2)
		if err != nil {
			return err
		}
		if two <= one {
			return fmt.Errorf("two layers (%d) not larger than one (%d)", two, one)
		}
		RemoveGhosts(dm)
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMigrateWithGhostsPanics requires the migrate guard's panic on
// every rank: each recovers its own, before any collective, and ends
// clean.
func TestMigrateWithGhostsPanics(t *testing.T) {
	var caught [2]any
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 2, 1, 1)
		}, 1, 2)
		Ghost(dm, 0, 1)
		defer func() { caught[ctx.Rank()] = recover() }()
		if err := TryMigrate(dm, make([]Plan, len(dm.Parts))); err != nil {
			return err
		}
		return fmt.Errorf("migration with ghosts did not panic")
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, p := range caught {
		if msg := fmt.Sprint(p); !strings.Contains(msg, "call RemoveGhosts first") {
			t.Errorf("rank %d recovered %q, want the migrate guard's panic", r, msg)
		}
	}
}

func TestGhostCopiesBackLinksAndNeighborRanks(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 2, 1, 1)
		}, 1, 2)
		//pumi-vet:ignore collseq // assertion failure ends the run; poisoning unblocks peers
		if got := NeighborRanks(dm); len(got) != 1 || got[0] != 1-ctx.Rank() {
			return fmt.Errorf("NeighborRanks = %v", got)
		}
		// A second call finds every ghost already there: the back links
		// it resends must not pile up beside the first call's.
		Ghost(dm, 2, 1)
		Ghost(dm, 2, 1)
		// Every element ghosted elsewhere has a back link, one per part.
		part := dm.Parts[0]
		m := part.M
		found := 0
		for el := range m.Elements() {
			if m.IsGhost(el) {
				continue
			}
			for i, g := range part.GhostCopies(el) {
				if g.Part == m.Part() {
					return fmt.Errorf("ghost copy on own part")
				}
				if i > 0 && g.Part <= part.GhostCopies(el)[i-1].Part {
					return fmt.Errorf("ghost copies of %v out of order or repeated: %v", el, part.GhostCopies(el))
				}
				found++
			}
		}
		if found == 0 {
			return fmt.Errorf("no ghost back links recorded")
		}
		RemoveGhosts(dm)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPtnModelAccessors(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 2, 1, 1)
		}, 1, 2)
		pm := BuildPtnModel(dm)
		if s := pm.String(); len(s) == 0 {
			return fmt.Errorf("empty partition model string")
		}
		// Get resolves the interface class {0,1}.
		pe := pm.Get(ds.NewIntSet(0, 1))
		if pe == nil || pe.Residence.Len() != 2 {
			return fmt.Errorf("Get({0,1}) = %v", pe)
		}
		if pm.Get(ds.NewIntSet(7, 9)) != nil {
			return fmt.Errorf("bogus residence resolved")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGhostShipmentSizedOnce runs Ghost, its two rounds tapped between
// packing and delivery, on a mesh whose elements carry int, float-slice
// and bytes tag values, on every other element: each rank buffer holds
// exactly the bytes counted for it, in the one array its reservation
// made, and every ghost decodes its home's values.
func TestGhostShipmentSizedOnce(t *testing.T) {
	for _, layers := range []int{1, 2} {
		sz := tapSizing(t, 2)
		err := pcu.Run(2, func(ctx *pcu.Ctx) error {
			model := gmi.Box(4, 1, 1)
			dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
				return meshgen.Box3D(model, 8, 2, 2)
			}, 2, 4)
			want := func(gid int64) (int64, []float64, []byte) {
				return gid * 13, []float64{float64(gid), 0.5, -float64(gid)}, []byte{byte(gid), 1, 2, 3, byte(gid >> 8)}
			}
			for _, part := range dm.Parts {
				m := part.M
				id, _ := m.Tags.Create("id", ds.TagInt, 0)
				grad, _ := m.Tags.Create("grad", ds.TagFloatSlice, 3)
				flag, _ := m.Tags.Create("flag", ds.TagBytes, 5)
				for el := range m.Elements() {
					if gid := part.Gid(el); gid%2 == 0 {
						i, f, b := want(gid)
						m.Tags.SetInt(id, el, i)
						m.Tags.SetFloats(grad, el, f)
						m.Tags.SetBytes(flag, el, b)
					}
				}
			}
			Ghost(dm, 2, layers)
			ghosts := 0
			for _, part := range dm.Parts {
				m := part.M
				id, grad, flag := m.Tags.Find("id"), m.Tags.Find("grad"), m.Tags.Find("flag")
				for el := range m.Elements() {
					if !m.IsGhost(el) {
						continue
					}
					ghosts++
					gid := part.Gid(el)
					i, iok := m.Tags.GetInt(id, el)
					f, fok := m.Tags.GetFloats(grad, el)
					b, bok := m.Tags.GetBytes(flag, el)
					if gid%2 != 0 {
						if iok || fok || bok {
							return fmt.Errorf("ghost gid %d carries a value its home has not", gid)
						}
						continue
					}
					wi, wf, wb := want(gid)
					if i != wi || !slices.Equal(f, wf) || !slices.Equal(b, wb) {
						return fmt.Errorf("ghost gid %d decoded %d %v %v, want %d %v %v", gid, i, f, b, wi, wf, wb)
					}
				}
			}
			if pcu.SumInt64(ctx, int64(ghosts)) == 0 {
				return fmt.Errorf("no ghosts")
			}
			RemoveGhosts(dm)
			return Verify(dm)
		})
		if err != nil {
			t.Fatalf("layers=%d: %v", layers, err)
		}
		// The scatter's four rounds, the shipment, the back links, Verify.
		if err := sz.check(4 + 2 + 1); err != nil {
			t.Fatalf("layers=%d: %v", layers, err)
		}
	}
}
