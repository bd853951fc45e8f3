// Quickstart: the serial mesh API — build a classified mesh over an
// analytic model, interrogate adjacencies, attach tags and fields, and
// measure entities. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	pumi "github.com/fastmath/pumi-go"
)

func main() {
	// The geometric model: a unit box with 8 model vertices, 12 model
	// edges, 6 model faces and 1 model region.
	model := pumi.Box(1, 1, 1)
	fmt.Printf("model: %d vertices, %d edges, %d faces, %d regions\n",
		model.Count(0), model.Count(1), model.Count(2), model.Count(3))

	// A structured tetrahedral mesh classified against it.
	m := pumi.BoxMesh(model, 4, 4, 4)
	fmt.Printf("mesh:  %d vertices, %d edges, %d faces, %d tets\n",
		m.Count(0), m.Count(1), m.Count(2), m.Count(3))

	// Adjacency interrogation is O(1) per neighbor in the complete
	// representation: any order, any direction.
	var v pumi.Ent
	for x := range m.Iter(0) {
		v = x
		break
	}
	fmt.Printf("first vertex %v at %v:\n", v, m.Coord(v))
	var buf []pumi.Ent // adjacency queries append to a caller's buffer
	fmt.Printf("  %d edges, %d faces, %d regions around it\n",
		len(m.AdjacentTo(v, 1, buf[:0])),
		len(m.AdjacentTo(v, 2, buf[:0])),
		len(m.AdjacentTo(v, 3, buf[:0])))

	// Geometric classification links each mesh entity to the model
	// entity it discretizes.
	onBoundary := 0
	for f := range m.Iter(2) {
		if m.Classification(f).Dim == 2 {
			onBoundary++
		}
	}
	fmt.Printf("boundary faces: %d\n", onBoundary)

	// Tags attach arbitrary data; sets group entities.
	wall := m.Set("wall-faces")
	for f := range m.Iter(2) {
		if m.Classification(f).Dim == 2 {
			wall.Add(f)
		}
	}
	fmt.Printf("set %q holds %d faces\n", "wall-faces", wall.Len())

	// Fields hold nodal tensor data.
	u, err := pumi.NewField(m, "temperature", 1, pumi.Linear)
	if err != nil {
		log.Fatal(err)
	}
	u.SetByFunc(func(p pumi.Vec) []float64 { return []float64{p.X + p.Y} })
	for el := range m.Elements() {
		c := m.Centroid(el)
		got := u.Eval(el, c)
		fmt.Printf("temperature at centroid %v = %.3f\n", c, got[0])
		break
	}

	// Measures.
	vol := 0.0
	for el := range m.Elements() {
		vol += m.Measure(el)
	}
	fmt.Printf("total volume %.6f (exact: 1)\n", vol)

	if err := m.CheckConsistency(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("mesh is consistent")
}
