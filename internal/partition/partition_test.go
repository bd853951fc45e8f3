package partition

import (
	"fmt"
	"math"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/telemetry"
)

// distributeByX builds a distributed mesh on nranks*k parts from a
// serial generator run on rank 0, assigning elements to parts by
// equal-width slabs along x.
func distributeByX(ctx *pcu.Ctx, model *gmi.Model, gen func() *mesh.Mesh, k int, xmax float64) *DMesh {
	var serial *mesh.Mesh
	if ctx.Rank() == 0 {
		serial = gen()
	}
	dim := 3
	if model.Dim == 2 {
		dim = 2
	}
	dm := Adopt(ctx, model, dim, serial, k)
	nparts := dm.NParts()
	var assign map[mesh.Ent]int32
	if ctx.Rank() == 0 {
		assign = map[mesh.Ent]int32{}
		for el := range serial.Elements() {
			c := serial.Centroid(el)
			p := int32(c.X / xmax * float64(nparts))
			if int(p) >= nparts {
				p = int32(nparts - 1)
			}
			assign[el] = p
		}
	}
	if err := TryMigrate(dm, PlansFromAssignment(dm, assign)); err != nil {
		panic(err)
	}
	return dm
}

func TestDistributeBox(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		model := gmi.Box(4, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 4, 2, 2)
		}, 1, 4)
		if err := Verify(dm); err != nil {
			return err
		}
		wantT := int64(6 * 4 * 2 * 2)
		if got := GlobalCount(dm, 3); got != wantT {
			return fmt.Errorf("global tets = %d, want %d", got, wantT)
		}
		if got := GlobalCount(dm, 0); got != int64(5*3*3) {
			return fmt.Errorf("global verts = %d", got)
		}
		// Every part holds a quarter of the elements (slab split of a
		// uniform grid).
		counts := GatherCounts(dm, 3)
		for p, c := range counts {
			if c != int64(wantT)/4 {
				return fmt.Errorf("part %d has %d tets", p, c)
			}
		}
		mean, imb := Imbalance(counts)
		if math.Abs(mean-float64(wantT)/4) > 1e-9 || math.Abs(imb-1) > 1e-9 {
			return fmt.Errorf("mean=%g imb=%g", mean, imb)
		}
		// Each interior slab boundary plane has shared vertices.
		if tr := GatherBoundaryTraffic(dm, 0); tr.SharedTotal == 0 {
			return fmt.Errorf("no shared vertices after distribution")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMigrationPreservesClassification(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 2, 2, 2)
		}, 1, 2)
		// Count boundary-classified faces globally; must match serial.
		var bnd int64
		for _, part := range dm.Parts {
			m := part.M
			for f := range m.Iter(2) {
				if m.IsOwned(f) && m.Classification(f).Dim == 2 {
					bnd++
				}
			}
		}
		total := pcu.SumInt64(ctx, bnd)
		want := int64(2 * 6 * (2 * 2)) // 2 tris per boundary grid quad, 6 sides of 2x2
		if total != want {
			return fmt.Errorf("boundary faces = %d, want %d", total, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiplePartsPerRank(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(4, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 4, 2, 2)
		}, 3, 4) // 6 parts on 2 ranks
		if dm.NParts() != 6 {
			return fmt.Errorf("nparts = %d", dm.NParts())
		}
		if err := Verify(dm); err != nil {
			return err
		}
		if got := GlobalCount(dm, 3); got != 96 {
			return fmt.Errorf("tets = %d", got)
		}
		counts := GatherCounts(dm, 3)
		var nonEmpty int
		for _, c := range counts {
			if c > 0 {
				nonEmpty++
			}
		}
		if nonEmpty != 6 {
			return fmt.Errorf("%d non-empty parts", nonEmpty)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSecondMigrationAndReturn(t *testing.T) {
	err := pcu.Run(3, func(ctx *pcu.Ctx) error {
		model := gmi.Box(3, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 3, 2, 2)
		}, 1, 3)
		if err := Verify(dm); err != nil {
			return fmt.Errorf("after distribute: %w", err)
		}
		// Move everything to part 0 again.
		plans := make([]Plan, len(dm.Parts))
		for i, part := range dm.Parts {
			plans[i] = Plan{}
			for el := range part.M.Elements() {
				plans[i][el] = 0
			}
		}
		if err := TryMigrate(dm, plans); err != nil {
			return err
		}
		if err := Verify(dm); err != nil {
			return fmt.Errorf("after regather: %w", err)
		}
		counts := GatherCounts(dm, 3)
		if counts[0] != 72 || counts[1] != 0 || counts[2] != 0 {
			return fmt.Errorf("counts = %v", counts)
		}
		// Part 0 must hold a complete consistent serial mesh again:
		// no shared entities anywhere.
		for _, part := range dm.Parts {
			m := part.M
			for d := 0; d < 3; d++ {
				for range m.PartBoundary(d) {
					return fmt.Errorf("part %d still has boundary entities", m.Part())
				}
			}
		}
		if got := GlobalCount(dm, 0); got != int64(4*3*3) {
			return fmt.Errorf("verts = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartitionModelFig34(t *testing.T) {
	// Reproduce the paper's Fig 3/4 structure: a 2D mesh on 3 parts
	// where one vertex is shared by all three parts (classifying on a
	// partition vertex P^0) and other boundary entities by pairs of
	// parts (partition edges P^1).
	err := pcu.Run(3, func(ctx *pcu.Ctx) error {
		model := gmi.Rect(2, 2)
		var serial *mesh.Mesh
		if ctx.Rank() == 0 {
			serial = meshgen.Rect2D(model, 2, 2)
		}
		dm := Adopt(ctx, model.Model, 2, serial, 1)
		var assign map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			assign = map[mesh.Ent]int32{}
			for el := range serial.Elements() {
				c := serial.Centroid(el)
				switch {
				case c.X < 1 && c.Y < 1:
					assign[el] = 0
				case c.X >= 1 && c.Y < 1:
					assign[el] = 1
				default:
					assign[el] = 2
				}
			}
		}
		if err := TryMigrate(dm, PlansFromAssignment(dm, assign)); err != nil {
			return err
		}
		if err := Verify(dm); err != nil {
			return err
		}
		pm := BuildPtnModel(dm)
		var p0, p1, p2 int
		for _, pe := range pm.Ents {
			switch pe.Dim {
			case 0:
				p0++
				if pe.Residence.Len() != 3 {
					return fmt.Errorf("partition vertex with residence %v", pe.Residence.Values())
				}
			case 1:
				p1++
				if pe.Residence.Len() != 2 {
					return fmt.Errorf("partition edge with residence %v", pe.Residence.Values())
				}
			case 2:
				p2++
			}
		}
		// One central vertex shared by parts {0,1,2}; pairs {0,1},
		// {1,2}, {0,2}... the L-shaped part 2 touches both 0 and 1.
		if p0 != 1 {
			return fmt.Errorf("partition vertices = %d, want 1", p0)
		}
		if p1 < 2 {
			return fmt.Errorf("partition edges = %d", p1)
		}
		if p2 != 3 {
			return fmt.Errorf("partition faces = %d, want 3 (one per part interior)", p2)
		}
		// The partition vertex's owner is its minimum residence part.
		for _, pe := range pm.Ents {
			if pe.Owner != pe.Residence.Min() {
				return fmt.Errorf("owner %d not min of %v", pe.Owner, pe.Residence.Values())
			}
		}
		// The central mesh vertex classifies on the partition vertex.
		for _, part := range dm.Parts {
			m := part.M
			for v := range m.PartBoundary(0) {
				pe := pm.Classify(m, v)
				if pe == nil {
					return fmt.Errorf("vertex %v unclassified in partition model", v)
				}
				if m.Residence(v).Len() == 3 && pe.Dim != 0 {
					return fmt.Errorf("3-part vertex classified on P^%d", pe.Dim)
				}
				if m.Residence(v).Len() == 2 && pe.Dim != 1 {
					return fmt.Errorf("2-part vertex classified on P^%d", pe.Dim)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOwnershipUnique(t *testing.T) {
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		model := gmi.Box(4, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 4, 2, 2)
		}, 1, 4)
		// Sum of owned counts must equal global unique counts; global
		// count already counts owners only, so cross-check against the
		// serial totals.
		if GlobalCount(dm, 0) != 45 || GlobalCount(dm, 1) != 45+98+44 {
			// V=5*3*3=45. E from Euler: V-E+F-T=1.
			v, e, f, tt := GlobalCount(dm, 0), GlobalCount(dm, 1), GlobalCount(dm, 2), GlobalCount(dm, 3)
			if v-e+f-tt != 1 {
				return fmt.Errorf("global Euler broken: %d %d %d %d", v, e, f, tt)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestImbalanceMath(t *testing.T) {
	mean, imb := Imbalance([]int64{10, 10, 10, 30})
	if mean != 15 || imb != 2 {
		t.Fatalf("mean=%g imb=%g", mean, imb)
	}
	if _, imb := Imbalance[int64](nil); imb != 0 {
		t.Fatal("empty imbalance")
	}
	mean, imb = Imbalance([]int64{0, 0})
	if mean != 0 || imb != 0 {
		t.Fatal("zero imbalance")
	}
}

func TestGidsStableAcrossMigration(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 2, 1, 1)
		}, 1, 2)
		// Shared vertices must have matching gids on both sides:
		// Verify checks every link's gid against its remote copy.
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsTravelWithMigration(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(2, 1, 1)
		var serial *mesh.Mesh
		//pumi-vet:ignore collseq // setup failure ends the run; poisoning unblocks peers
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 4, 2, 2)
			// Tag every element and vertex before distribution.
			w, err := serial.Tags.Create("w", ds.TagFloat, 0)
			if err != nil {
				return err
			}
			for el := range serial.Elements() {
				serial.Tags.SetFloat(w, el, serial.Centroid(el).X)
			}
			vv, err := serial.Tags.Create("vv", ds.TagFloatSlice, 3)
			if err != nil {
				return err
			}
			for v := range serial.Iter(0) {
				p := serial.Coord(v)
				serial.Tags.SetFloats(vv, v, []float64{p.X, p.Y, p.Z})
			}
		}
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh { return serial }, 1, 2)
		for _, part := range dm.Parts {
			m := part.M
			w := m.Tags.Find("w")
			if w == nil {
				return fmt.Errorf("part %d lost tag w", m.Part())
			}
			for el := range m.Elements() {
				got, ok := m.Tags.GetFloat(w, el)
				if !ok {
					return fmt.Errorf("element %v lost its tag", el)
				}
				if math.Abs(got-m.Centroid(el).X) > 1e-12 {
					return fmt.Errorf("element tag %g, want %g", got, m.Centroid(el).X)
				}
			}
			vv := m.Tags.Find("vv")
			for v := range m.Iter(0) {
				got, ok := m.Tags.GetFloats(vv, v)
				if !ok {
					return fmt.Errorf("vertex %v lost its tag", v)
				}
				p := m.Coord(v)
				if got[0] != p.X || got[1] != p.Y || got[2] != p.Z {
					return fmt.Errorf("vertex tag %v at %v", got, p)
				}
			}
		}
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPerfCountersRecorded(t *testing.T) {
	var reg *telemetry.Registry
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		if ctx.Rank() == 0 {
			reg = ctx.Metrics()
		}
		model := gmi.Box(2, 1, 1)
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 2, 2, 2)
		}, 1, 2)
		Ghost(dm, 0, 1)
		RemoveGhosts(dm)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"partition.migrate.ns", "partition.ghost.ns", "partition.unghost.ns"} {
		if h := reg.Histogram(stage); h.Count() == 0 || h.Sum() <= 0 {
			t.Errorf("%s: %d spans totalling %d ns, want some", stage, h.Count(), h.Sum())
		}
	}
	if reg.Counter("partition.migrated-elements").Value() <= 0 {
		t.Error("migrated-element counter not recorded")
	}
}
