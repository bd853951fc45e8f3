package pumi

import (
	"testing"
)

// TestFacadeWorkflow exercises the documented public API end to end:
// generate, distribute, balance, adapt, field transfer, verify.
func TestFacadeWorkflow(t *testing.T) {
	model := Box(2, 1, 1)
	err := Run(4, func(ctx *Ctx) error {
		var serial *Mesh
		if ctx.Rank() == 0 {
			serial = BoxMesh(model, 8, 4, 4)
		}
		dm, err := PartitionRCB(ctx, model.Model, 3, serial, 1)
		if err != nil {
			return err
		}
		if err := Verify(dm); err != nil {
			return err
		}
		pri, err := ParsePriority("Vtx>Rgn")
		if err != nil {
			return err
		}
		if _, err := BalanceSafe(dm, pri, DefaultBalanceConfig()); err != nil {
			return err
		}
		if _, imb := EntityImbalance(dm, 0); imb > 1.3 {
			t.Errorf("vertex imbalance %g", imb)
		}
		AdaptParallel(dm, UniformSize(0.2), DefaultAdaptOptions())
		if err := Verify(dm); err != nil {
			return err
		}
		Ghost(dm, 2, 1)
		RemoveGhosts(dm)
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSerialPieces(t *testing.T) {
	model := Rect(1, 1)
	m := RectMesh(model, 4, 4)
	if m.Count(2) != 32 {
		t.Fatalf("tris = %d", m.Count(2))
	}
	f, err := NewField(m, "u", 1, Linear)
	if err != nil {
		t.Fatal(err)
	}
	f.SetByFunc(func(p Vec) []float64 { return []float64{p.X} })
	if FindField(m, "u", Linear) == nil {
		t.Fatal("FindField failed")
	}
	in, _ := Centroids(m)
	part := RCB(in, 4)
	if len(part) != 32 {
		t.Fatal("RCB assignment size")
	}
	g, _ := DualGraph(m)
	if cut := g.EdgeCut(MLGraph(g, 2)); cut <= 0 {
		t.Fatal("MLGraph cut")
	}
}
