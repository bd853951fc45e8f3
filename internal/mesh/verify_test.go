package mesh_test

import (
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

// The hand-built link cases of the distributed verifier: a chain of unit
// edges, edge i on part i, so each pair of neighboring parts shares one
// vertex, corrupted one link at a time and checked by partition.Verify.

// chain distributes a chain of n unit edges over n parts, k per rank.
func chain(c *pcu.Ctx, n, k int) *partition.DMesh {
	var serial *mesh.Mesh
	var assign []int32
	if c.Rank() == 0 {
		serial = mesh.New(nil, 1)
		v := serial.CreateVertex(gmi.NoRef, vec.V{})
		for i := range n {
			w := serial.CreateVertex(gmi.NoRef, vec.V{X: float64(i + 1)})
			serial.CreateEntity(mesh.Edge, gmi.NoRef, []mesh.Ent{v, w})
			assign = append(assign, int32(i))
			v = w
		}
	}
	dm, err := partition.Distribute(c, nil, 1, serial, assign, k)
	if err != nil {
		panic(err)
	}
	return dm
}

// twoRankInterface distributes a two-edge chain over two ranks and
// returns this rank's part with its shared vertex and that vertex's copy
// on the peer part.
func twoRankInterface(c *pcu.Ctx) (dm *partition.DMesh, m *mesh.Mesh, shared, copy mesh.Ent) {
	dm = chain(c, 2, 1)
	m = dm.Parts[0].M
	for v := range m.PartBoundary(0) {
		shared = v
	}
	copy, _ = m.RemoteCopy(shared, int32(1-c.Rank()))
	return dm, m, shared, copy
}

func TestVerifyParallelClean(t *testing.T) {
	err := pcu.Run(2, func(c *pcu.Ctx) error {
		dm, _, _, _ := twoRankInterface(c)
		return partition.Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// expectVerifyError runs corrupt on each rank of a two-rank interface
// and asserts Verify fails with a message containing want on at least
// one rank.
func expectVerifyError(t *testing.T, want string, corrupt func(c *pcu.Ctx, m *mesh.Mesh, shared, copy mesh.Ent)) {
	t.Helper()
	err := pcu.Run(2, func(c *pcu.Ctx) error {
		dm, m, shared, copy := twoRankInterface(c)
		corrupt(c, m, shared, copy)
		return partition.Verify(dm)
	})
	if err == nil {
		t.Fatalf("Verify missed the %q violation", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestVerifyParallelAsymmetricLink(t *testing.T) {
	expectVerifyError(t, "asymmetric link", func(c *pcu.Ctx, m *mesh.Mesh, shared, copy mesh.Ent) {
		if c.Rank() == 1 {
			// Repoint part 1's back link at part 0's other vertex.
			m.SetRemote(shared, 0, mesh.Ent{T: mesh.Vertex, I: 1 - copy.I})
		}
	})
}

func TestVerifyParallelMissingBackLink(t *testing.T) {
	expectVerifyError(t, "lacks the back link", func(c *pcu.Ctx, m *mesh.Mesh, shared, _ mesh.Ent) {
		if c.Rank() == 1 {
			m.ClearRemotes(shared)
		}
	})
}

// star distributes a star of n unit edges over n parts, k per rank, so
// that its center vertex resides on every part.
func star(c *pcu.Ctx, n, k int) *partition.DMesh {
	var serial *mesh.Mesh
	var assign []int32
	if c.Rank() == 0 {
		serial = mesh.New(nil, 1)
		center := serial.CreateVertex(gmi.NoRef, vec.V{})
		for i := range n {
			w := serial.CreateVertex(gmi.NoRef, vec.V{X: float64(i + 1)})
			serial.CreateEntity(mesh.Edge, gmi.NoRef, []mesh.Ent{center, w})
			assign = append(assign, int32(i))
		}
	}
	dm, err := partition.Distribute(c, nil, 1, serial, assign, k)
	if err != nil {
		panic(err)
	}
	return dm
}

// TestVerifyParallelOwnerDisagreement gives the copies of one entity
// residences that disagree: the center of a four-edge star loses the
// links between parts 0 and 3 on both sides, so part 3 sees [1 2 3] and
// takes part 1 for the owner, while parts 1 and 2 see part 0.
func TestVerifyParallelOwnerDisagreement(t *testing.T) {
	err := pcu.Run(2, func(c *pcu.Ctx) error {
		dm := star(c, 4, 2)
		for _, part := range dm.Parts {
			var center mesh.Ent
			for v := range part.M.PartBoundary(0) {
				center = v
			}
			if p := part.M.Part(); p == 0 || p == 3 {
				part.M.RemoveRemote(center, 3-p)
			}
		}
		return partition.Verify(dm)
	})
	if err == nil || !strings.Contains(err.Error(), "owner disagreement") {
		t.Fatalf("want an owner disagreement, got %v", err)
	}
}

func TestVerifyParallelOrphanBoundary(t *testing.T) {
	expectVerifyError(t, "orphan boundary entity", func(c *pcu.Ctx, m *mesh.Mesh, _, _ mesh.Ent) {
		// A shared vertex that bounds nothing on either part.
		stray := m.CreateVertex(gmi.NoRef, vec.V{X: 9})
		m.SetRemote(stray, int32(1-c.Rank()), stray)
	})
}

func TestVerifyParallelDeadCopy(t *testing.T) {
	expectVerifyError(t, "dead copy", func(c *pcu.Ctx, m *mesh.Mesh, shared, _ mesh.Ent) {
		if c.Rank() == 0 {
			// Claim a copy handle that does not exist on part 1.
			m.SetRemote(shared, 1, mesh.Ent{T: mesh.Vertex, I: 99})
		}
	})
}

func TestVerifyParallelSelfLink(t *testing.T) {
	expectVerifyError(t, "its own part", func(c *pcu.Ctx, m *mesh.Mesh, shared, _ mesh.Ent) {
		if c.Rank() == 0 {
			m.SetRemote(shared, 0, mesh.Ent{T: mesh.Vertex, I: 0})
		}
	})
}

func TestVerifyParallelMultiplePartsPerRank(t *testing.T) {
	// Two parts per rank on a four-edge chain: the interface between
	// parts 0 and 1 stays on rank 0, the one between parts 1 and 2
	// crosses ranks, and records must reach the right local part.
	err := pcu.Run(2, func(c *pcu.Ctx) error {
		return partition.Verify(chain(c, 4, 2))
	})
	if err != nil {
		t.Fatal(err)
	}
}
