// Poisson: a complete distributed finite-element solve on PUMI — the
// kind of PDE workload the infrastructure exists to serve. The Laplace
// equation is solved on a box with Dirichlet data from a harmonic
// function; since the exact solution is linear, the linear FE solution
// matches it exactly at convergence, so the example checks itself.
//
// Every ingredient of the paper's workflow appears: mesh generation,
// RCB partitioning, ParMA vertex balancing (vertex balance is what
// matters to an FE solve, as the paper's motivation says), per-element
// assembly, accumulation of shared-node contributions to owners, owner
// broadcast back to copies, and Jacobi iteration with one
// synchronization per step. Run with:
//
//	go run ./examples/poisson
package main

import (
	"fmt"
	"log"
	"math"

	pumi "github.com/fastmath/pumi-go"
)

func main() {
	model := pumi.Box(1, 1, 1)
	const ranks = 8

	err := pumi.Run(ranks, func(ctx *pumi.Ctx) error {
		var serial *pumi.Mesh
		if ctx.Rank() == 0 {
			serial = pumi.BoxMesh(model, 8, 8, 8)
		}
		dm, err := pumi.PartitionRCB(ctx, model.Model, 3, serial, 1)
		if err != nil {
			return err
		}
		pri, _ := pumi.ParsePriority("Vtx>Rgn")
		if _, err := pumi.BalanceSafe(dm, pri, pumi.DefaultBalanceConfig()); err != nil {
			return err
		}

		// The manufactured (harmonic) solution.
		exact := func(p pumi.Vec) float64 { return p.X + 2*p.Y - 3*p.Z + 0.5 }

		// u: the iterate, fixed to the exact values on the boundary.
		// diag: the assembled diagonal of the stiffness matrix.
		for _, part := range dm.Parts {
			m := part.M
			u, err := pumi.NewField(m, "u", 1, pumi.Linear)
			if err != nil {
				return err
			}
			if _, err := pumi.NewField(m, "diag", 1, pumi.Linear); err != nil {
				return err
			}
			if _, err := pumi.NewField(m, "z", 1, pumi.Linear); err != nil {
				return err
			}
			for v := range m.Iter(0) {
				if m.Classification(v).Dim < 3 {
					u.Set(v, exact(m.Coord(v))) // Dirichlet boundary
				} else {
					u.Set(v, 0)
				}
			}
		}
		// Assemble the diagonal once: K_ii = sum_el V * g_i . g_i.
		for _, part := range dm.Parts {
			m := part.M
			diag := pumi.FindField(m, "diag", pumi.Linear)
			for el := range m.Elements() {
				verts, grads, vol := elementGradients(m, el)
				for i, v := range verts {
					d := diag.MustGet(v)
					diag.Set(v, d[0]+vol*grads[i].Dot(grads[i]))
				}
			}
		}
		pumi.AccumulateShared(dm, "diag", pumi.Linear)
		pumi.SyncField(dm, "diag", pumi.Linear)

		// Jacobi iterations: z = K u assembled element-wise, then
		// u_i <- u_i - (z_i / K_ii) on interior nodes.
		const iters = 300
		for it := 0; it < iters; it++ {
			for _, part := range dm.Parts {
				m := part.M
				u := pumi.FindField(m, "u", pumi.Linear)
				z := pumi.FindField(m, "z", pumi.Linear)
				for v := range m.Iter(0) {
					z.Set(v, 0)
				}
				for el := range m.Elements() {
					verts, grads, vol := elementGradients(m, el)
					var du [4]float64
					for j, v := range verts {
						du[j] = u.MustGet(v)[0]
					}
					for i, v := range verts {
						s := 0.0
						for j := range verts {
							s += vol * grads[i].Dot(grads[j]) * du[j]
						}
						cur := z.MustGet(v)
						z.Set(v, cur[0]+s)
					}
				}
			}
			pumi.AccumulateShared(dm, "z", pumi.Linear)
			for _, part := range dm.Parts {
				m := part.M
				u := pumi.FindField(m, "u", pumi.Linear)
				z := pumi.FindField(m, "z", pumi.Linear)
				diag := pumi.FindField(m, "diag", pumi.Linear)
				for v := range m.Iter(0) {
					if !m.IsOwned(v) || m.Classification(v).Dim < 3 {
						continue // copies follow owners; boundary pinned
					}
					ui := u.MustGet(v)[0]
					zi := z.MustGet(v)[0]
					di := diag.MustGet(v)[0]
					u.Set(v, ui-zi/di*0.9) // damped Jacobi
				}
			}
			pumi.SyncField(dm, "u", pumi.Linear)
		}

		// Error against the exact solution.
		var worst float64
		for _, part := range dm.Parts {
			m := part.M
			u := pumi.FindField(m, "u", pumi.Linear)
			for v := range m.Iter(0) {
				if e := math.Abs(u.MustGet(v)[0] - exact(m.Coord(v))); e > worst {
					worst = e
				}
			}
		}
		worst = pumi.MaxFloat64(ctx, worst)
		nodes := pumi.GlobalCount(dm, 0)
		if ctx.Rank() == 0 {
			fmt.Printf("solved Laplace on %d nodes across %d parts: max error %.2e\n",
				nodes, dm.NParts(), worst)
		}
		if worst > 2e-3 {
			return fmt.Errorf("Jacobi did not converge: max error %g", worst)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

// elementGradients returns a tet's vertices, the constant gradients of
// their linear shape functions, and the element volume.
func elementGradients(m *pumi.Mesh, el pumi.Ent) ([]pumi.Ent, [4]pumi.Vec, float64) {
	verts := m.VertsTo(el, make([]pumi.Ent, 0, 4))
	var p [4]pumi.Vec
	for i, v := range verts {
		p[i] = m.Coord(v)
	}
	vol := math.Abs(p[1].Sub(p[0]).Cross(p[2].Sub(p[0])).Dot(p[3].Sub(p[0]))) / 6
	var grads [4]pumi.Vec
	// grad(lambda_i) = n_i / (6V), with n_i the opposite-face cross
	// product oriented toward vertex i (|n_i| = 2 * face area).
	for i := 0; i < 4; i++ {
		a, b, c := p[(i+1)%4], p[(i+2)%4], p[(i+3)%4]
		n := b.Sub(a).Cross(c.Sub(a))
		if n.Dot(p[i].Sub(a)) < 0 {
			n = n.Scale(-1)
		}
		grads[i] = n.Scale(1 / (6 * vol))
	}
	return verts, grads, vol
}
