package pumi_test

import (
	"fmt"

	pumi "github.com/fastmath/pumi-go"
)

// ExampleBoxMesh builds a serial classified mesh and interrogates it.
func ExampleBoxMesh() {
	model := pumi.Box(1, 1, 1)
	m := pumi.BoxMesh(model, 2, 2, 2)
	fmt.Println("tets:", m.Count(3))
	fmt.Println("vertices:", m.Count(0))
	boundary := 0
	for f := range m.Iter(2) {
		if m.Classification(f).Dim == 2 {
			boundary++
		}
	}
	fmt.Println("boundary faces:", boundary)
	// Output:
	// tets: 48
	// vertices: 27
	// boundary faces: 48
}

// ExampleParsePriority shows the paper's priority notation.
func ExampleParsePriority() {
	pri, _ := pumi.ParsePriority("Face=Edge>Rgn")
	fmt.Println(pri) // equal levels reorder by increasing dimension
	// Output:
	// Edge=Face>Rgn
}

// ExampleRun distributes a mesh, balances it with ParMA, and verifies
// the distributed invariants.
func ExampleRun() {
	model := pumi.Box(1, 1, 1)
	err := pumi.Run(4, func(ctx *pumi.Ctx) error {
		var serial *pumi.Mesh
		if ctx.Rank() == 0 {
			serial = pumi.BoxMesh(model, 4, 4, 4)
		}
		dm, err := pumi.PartitionRCB(ctx, model.Model, 3, serial, 1)
		if err != nil {
			return err
		}
		pri, _ := pumi.ParsePriority("Vtx>Rgn")
		if _, err := pumi.BalanceSafe(dm, pri, pumi.DefaultBalanceConfig()); err != nil {
			return err
		}
		if err := pumi.Verify(dm); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			fmt.Println("elements:", pumi.GlobalCount(dm, 3))
		} else {
			pumi.GlobalCount(dm, 3) // collective
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// elements: 384
}

// ExampleRCB partitions element centroids geometrically.
func ExampleRCB() {
	model := pumi.Rect(2, 1)
	m := pumi.RectMesh(model, 4, 2)
	in, _ := pumi.Centroids(m)
	assign := pumi.RCB(in, 2)
	counts := [2]int{}
	for _, p := range assign {
		counts[p]++
	}
	fmt.Println("part sizes:", counts[0], counts[1])
	// Output:
	// part sizes: 8 8
}
