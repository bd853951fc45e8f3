package partition

import (
	"fmt"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// verifyWorld distributes a small tet box over the ranks, k parts each.
func verifyWorld(ctx *pcu.Ctx, k int) *DMesh {
	model := gmi.Box(4, 1, 1)
	return distributeByX(ctx, model.Model, func() *mesh.Mesh {
		return meshgen.Box3D(model, 4, 2, 2)
	}, k, 4)
}

// TestVerifyIsTwoOps pins the schedule of one Verify on 2 ranks x 3 parts
// of a 3D mesh: one exchange and one Allreduce.
func TestVerifyIsTwoOps(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := verifyWorld(ctx, 3)
		before := ctx.Ops()
		if err := Verify(dm); err != nil {
			return err
		}
		if n := ctx.Ops() - before; n != 2 {
			return fmt.Errorf("rank %d: Verify took %d blocking ops, want 2", ctx.Rank(), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsUnknownPart plants a link to a part that does not
// exist: the corrupt rank must name it, the clean rank a peer, and
// neither may panic.
func TestVerifyRejectsUnknownPart(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := verifyWorld(ctx, 1)
		m := dm.Parts[0].M
		if ctx.Rank() == 1 {
			for e := range m.Iter(0) {
				m.SetRemote(e, 99, e)
				break
			}
		}
		want := "peer rank"
		if ctx.Rank() == 1 {
			want = "unknown part"
		}
		if err := Verify(dm); err == nil || !strings.Contains(err.Error(), want) {
			return fmt.Errorf("rank %d: Verify returned %v, want an error naming %q", ctx.Rank(), err, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVerifyFindsLinkedGhost links one ghost vertex to another part:
// Verify, walking the boundary table, must name the ghost on its rank
// and a peer on the other.
func TestVerifyFindsLinkedGhost(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := verifyWorld(ctx, 2)
		Ghost(dm, 0, 1)
		if err := Verify(dm); err != nil {
			return fmt.Errorf("before the fault: %w", err)
		}
		want, linked := "peer rank", true
		if ctx.Rank() == 0 {
			want, linked = "has remote-copy links", false
			m := dm.Parts[0].M
			for v := range m.Iter(0) {
				if m.IsGhost(v) {
					m.SetRemote(v, 3, v)
					linked = true
					break
				}
			}
		}
		err := Verify(dm)
		switch {
		case !linked:
			return fmt.Errorf("part 0 holds no ghost vertex")
		case err == nil || !strings.Contains(err.Error(), want):
			return fmt.Errorf("rank %d: Verify returned %v, want an error naming %q", ctx.Rank(), err, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVerifyChecksGhostLinks: Verify passes with ghosts present, and
// fails on every rank once one ghost link is broken — a home element's
// link repointed to another handle, or a ghost element's link removed —
// naming the break on the rank that holds it.
func TestVerifyChecksGhostLinks(t *testing.T) {
	breaks := []struct {
		name, want string
		brk        func(m *mesh.Mesh, el mesh.Ent) bool
	}{
		{"home repointed", "asymmetric link on part 0", func(m *mesh.Mesh, el mesh.Ent) bool {
			if m.IsGhost(el) || !m.HasRemotes(el) {
				return false
			}
			m.EachRemote(el, func(q int32, g mesh.Ent) bool {
				m.SetRemote(el, q, mesh.Ent{T: g.T, I: g.I + 1})
				return false
			})
			return true
		}},
		{"ghost unlinked", "holds 0 links", func(m *mesh.Mesh, el mesh.Ent) bool {
			if !m.IsGhost(el) {
				return false
			}
			m.RemoveRemote(el, m.Owner(el))
			return true
		}},
	}
	for _, b := range breaks {
		t.Run(b.name, func(t *testing.T) {
			err := pcu.Run(2, func(ctx *pcu.Ctx) error {
				dm := verifyWorld(ctx, 2)
				Ghost(dm, 2, 1)
				if err := Verify(dm); err != nil {
					return fmt.Errorf("with ghosts, before the break: %w", err)
				}
				want, broken := "peer rank", true
				if ctx.Rank() == 0 {
					want, broken = b.want, false
					m := dm.Parts[0].M
					for el := range m.Elements() {
						if broken = b.brk(m, el); broken {
							break
						}
					}
				}
				err := Verify(dm)
				switch {
				case !broken:
					return fmt.Errorf("part 0 holds no link to break")
				case err == nil || !strings.Contains(err.Error(), want):
					return fmt.Errorf("rank %d: Verify returned %v, want an error naming %q", ctx.Rank(), err, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
