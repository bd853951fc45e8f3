// Ghost FV: a cell-centered finite-volume style computation on a
// distributed mesh — the paper's motivating use of ghosting. Each part
// holds one layer of read-only ghost elements so that a cell-gradient
// stencil (face neighbors) evaluates without per-iteration
// communication; only one tag synchronization per "time step" is
// needed. Run with:
//
//	go run ./examples/ghostfv
package main

import (
	"fmt"
	"log"
	"math"

	pumi "github.com/fastmath/pumi-go"
)

func main() {
	model := pumi.Box(2, 1, 1)
	const ranks = 6

	err := pumi.Run(ranks, func(ctx *pumi.Ctx) error {
		var serial *pumi.Mesh
		if ctx.Rank() == 0 {
			serial = pumi.BoxMesh(model, 12, 6, 6)
		}
		dm, err := pumi.PartitionRCB(ctx, model.Model, 3, serial, 1)
		if err != nil {
			return err
		}

		// Cell-centered data: u(c) = x + 2y + 3z at the cell centroid.
		for _, part := range dm.Parts {
			m := part.M
			tag, err := m.Tags.Create("u", pumi.TagFloat, 0)
			if err != nil {
				return err
			}
			for el := range m.Elements() {
				c := m.Centroid(el)
				m.Tags.SetFloat(tag, el, c.X+2*c.Y+3*c.Z)
			}
		}

		// One ghost layer across faces localizes every face-neighbor.
		pumi.Ghost(dm, 2, 1)
		// Push owner values into the ghost copies ("including tag
		// data", as the paper defines ghosts).
		pumi.SyncGhostFloatTag(dm, "u")

		// Least-squares cell gradient from face neighbors; for a linear
		// field the result is exact, which proves the ghost values are
		// in place (interior stencils would otherwise be truncated at
		// part boundaries).
		worst := 0.0
		cells := 0
		var nbs []pumi.Ent // neighbor scratch, reused across cells
		for _, part := range dm.Parts {
			m := part.M
			tag := m.Tags.Find("u")
			for el := range m.Elements() {
				if m.IsGhost(el) {
					continue
				}
				nbs = m.BridgeAdjacentTo(el, 2, 3, nbs[:0])
				if len(nbs) < 3 {
					continue // corner cells: not enough stencil
				}
				u0, _ := m.Tags.GetFloat(tag, el)
				c0 := m.Centroid(el)
				// Normal equations for grad u from neighbor deltas.
				var a [3][3]float64
				var b [3]float64
				for _, nb := range nbs {
					un, ok := m.Tags.GetFloat(tag, nb)
					if !ok {
						return fmt.Errorf("neighbor %v has no value (ghost sync failed?)", nb)
					}
					d := m.Centroid(nb).Sub(c0)
					du := un - u0
					v := [3]float64{d.X, d.Y, d.Z}
					for r := 0; r < 3; r++ {
						for c := 0; c < 3; c++ {
							a[r][c] += v[r] * v[c]
						}
						b[r] += v[r] * du
					}
				}
				g, ok := solve3(a, b)
				if !ok {
					continue
				}
				e := math.Abs(g[0]-1) + math.Abs(g[1]-2) + math.Abs(g[2]-3)
				if e > worst {
					worst = e
				}
				cells++
			}
		}
		if ctx.Rank() == 0 {
			fmt.Printf("rank 0: evaluated gradients on %d cells\n", cells)
		}
		if worst > 1e-9 {
			return fmt.Errorf("gradient error %g: ghost stencils incomplete", worst)
		}
		if ctx.Rank() == 0 {
			fmt.Printf("cell gradients exact to %g — ghost stencils complete across part boundaries\n", worst)
		}
		pumi.RemoveGhosts(dm)
		return pumi.Verify(dm)
	})
	if err != nil {
		log.Fatal(err)
	}
}

// solve3 solves a 3x3 symmetric positive system by Gaussian elimination.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, bool) {
	for i := 0; i < 3; i++ {
		p := i
		for r := i + 1; r < 3; r++ {
			if math.Abs(a[r][i]) > math.Abs(a[p][i]) {
				p = r
			}
		}
		a[i], a[p] = a[p], a[i]
		b[i], b[p] = b[p], b[i]
		if math.Abs(a[i][i]) < 1e-14 {
			return [3]float64{}, false
		}
		for r := i + 1; r < 3; r++ {
			f := a[r][i] / a[i][i]
			for c := i; c < 3; c++ {
				a[r][c] -= f * a[i][c]
			}
			b[r] -= f * b[i]
		}
	}
	var x [3]float64
	for i := 2; i >= 0; i-- {
		s := b[i]
		for c := i + 1; c < 3; c++ {
			s -= a[i][c] * x[c]
		}
		x[i] = s / a[i][i]
	}
	return x, true
}
