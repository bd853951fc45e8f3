package partition

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// xorshift is a tiny deterministic PRNG so the randomized migration
// storm is reproducible without math/rand seeding ceremony.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// TestRandomMigrationStorm subjects the distributed mesh to rounds of
// randomized migration plans — every part scatters random subsets of
// its elements to random destinations — and asserts after every round
// that all distributed invariants hold and nothing is lost: global
// entity counts per dimension, total element volume, and boundary
// classification counts stay exactly constant. The same eight parts and
// per-part seeds run at 1, 2 and 4 parts per rank, and must end with
// the same per-part entity counts and the same owner for every gid:
// what a part does may not depend on which parts share its rank.
func TestRandomMigrationStorm(t *testing.T) {
	const nparts = 8
	var first string
	for _, k := range []int{1, 2, 4} {
		got := migrationStorm(t, nparts/k, k)
		if first == "" {
			first = got
		} else if got != first {
			t.Errorf("%d parts per rank ended in a different state than 1 part per rank:\n%s\n--- vs ---\n%s",
				k, got, first)
		}
	}
}

// migrationStorm runs the storm on ranks × k parts and returns the final
// state in a layout-independent form: GatherCounts per dimension, then
// the (dimension, gid, owner) table over all parts, sorted.
func migrationStorm(t *testing.T, ranks, k int) string {
	const rounds = 8
	model := gmi.Box(2, 1, 1)
	var state string
	err := pcu.Run(ranks, func(ctx *pcu.Ctx) error {
		var serial *mesh.Mesh
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 4, 3, 3)
		}
		dm := Adopt(ctx, model.Model, 3, serial, k)
		nparts := int32(dm.NParts())
		var assign map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			assign = map[mesh.Ent]int32{}
			i := 0
			for el := range serial.Elements() {
				assign[el] = int32(i) % nparts
				i++
			}
		}
		if err := TryMigrate(dm, PlansFromAssignment(dm, assign)); err != nil {
			return err
		}

		wantCounts := [4]int64{}
		for d := 0; d <= 3; d++ {
			wantCounts[d] = GlobalCount(dm, d)
		}
		wantVol := globalVolume(dm)
		wantBnd := globalBoundaryFaces(dm)

		// One generator per part, so a part draws the same plan however
		// the parts are laid out over ranks.
		rngs := make([]xorshift, len(dm.Parts))
		for i, part := range dm.Parts {
			rngs[i] = xorshift(0x9e3779b97f4a7c15 ^ uint64(part.M.Part()+1))
		}
		for round := 0; round < rounds; round++ {
			plans := make([]Plan, len(dm.Parts))
			for i, part := range dm.Parts {
				plans[i] = Plan{}
				for el := range part.M.Elements() {
					r := rngs[i].next()
					if r%100 < 30 { // ~30% of elements move
						plans[i][el] = int32(r % uint64(nparts))
					}
				}
			}
			if err := TryMigrate(dm, plans); err != nil {
				return err
			}
			if err := Verify(dm); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			if err := checkBoundaryTable(dm); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			for d := 0; d <= 3; d++ {
				if got := GlobalCount(dm, d); got != wantCounts[d] {
					return fmt.Errorf("round %d dim %d: count %d, want %d", round, d, got, wantCounts[d])
				}
			}
			if got := globalVolume(dm); math.Abs(got-wantVol) > 1e-9 {
				return fmt.Errorf("round %d: volume %g, want %g", round, got, wantVol)
			}
			if got := globalBoundaryFaces(dm); got != wantBnd {
				return fmt.Errorf("round %d: boundary faces %d, want %d", round, got, wantBnd)
			}
		}

		var owners []string
		for _, part := range dm.Parts {
			for d := 0; d <= 3; d++ {
				for e := range part.M.Iter(d) {
					owners = append(owners, fmt.Sprintf("%d %12d -> %d", d, part.Gid(e), part.M.Owner(e)))
				}
			}
		}
		var all []string
		for _, o := range pcu.Allgather(ctx, owners) {
			all = append(all, o...)
		}
		slices.Sort(all)
		all = slices.Compact(all) // copies of a shared entity agree (Verify)
		var sb strings.Builder
		for d := 0; d <= 3; d++ {
			fmt.Fprintf(&sb, "dim %d per part: %v\n", d, GatherCounts(dm, d))
		}
		sb.WriteString(strings.Join(all, "\n"))
		if ctx.Rank() == 0 {
			state = sb.String()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%d ranks x %d parts: %v", ranks, k, err)
	}
	return state
}

// checkBoundaryTable holds every part's boundary table to what it
// stands for, entity by entity: per dimension, BoundaryTable yields the
// entities of Iter that have remote copies or are ghosts, and
// PartBoundary those below the elements that have remote copies, in
// Iter order; NeighborParts is the sorted union of the latter's remote
// parts. A shared entity is owned by the lowest part of its residence —
// the owner every migration restitches — a ghost by another part, to
// which a ghost element links and a lower ghost does not; any other
// entity by its own part (an element that links to its ghosts too).
// IsOwned agrees with Owner.
func checkBoundaryTable(dm *DMesh) error {
	var want, table, got []mesh.Ent
	var parts, res []int32
	for _, part := range dm.Parts {
		m := part.M
		for d := 0; d <= dm.Dim; d++ {
			want, table, parts = want[:0], table[:0], parts[:0]
			for e := range m.Iter(d) {
				owner := m.Owner(e)
				if m.IsOwned(e) != (owner == m.Part()) {
					return fmt.Errorf("part %d: %v owned by %d, IsOwned %v", m.Part(), e, owner, m.IsOwned(e))
				}
				if m.HasRemotes(e) || m.IsGhost(e) {
					table = append(table, e)
				}
				switch {
				case m.IsGhost(e):
					_, home := m.RemoteCopy(e, owner)
					links := 0
					if d == dm.Dim {
						links = 1
					}
					if owner == m.Part() || m.NRemotes(e) != links || links == 1 && !home {
						return fmt.Errorf("part %d: ghost %v owned by %d, %d links", m.Part(), e, owner, m.NRemotes(e))
					}
				case d == dm.Dim:
					if owner != m.Part() {
						return fmt.Errorf("part %d: element %v owned by %d", m.Part(), e, owner)
					}
				case m.HasRemotes(e):
					want = append(want, e)
					parts = m.AppendRemoteParts(e, parts)
					if res = m.AppendResidence(e, res[:0]); owner != res[0] {
						return fmt.Errorf("part %d: shared %v owned by %d, residence %v", m.Part(), e, owner, res)
					}
				case owner != m.Part():
					return fmt.Errorf("part %d: interior %v owned by %d", m.Part(), e, owner)
				}
			}
			if got = slices.AppendSeq(got[:0], m.BoundaryTable(d)); !slices.Equal(got, table) {
				return fmt.Errorf("part %d dim %d: BoundaryTable yields %v, the filtered Iter %v", m.Part(), d, got, table)
			}
			if got = slices.AppendSeq(got[:0], m.PartBoundary(d)); !slices.Equal(got, want) {
				return fmt.Errorf("part %d dim %d: PartBoundary yields %v, the filtered Iter %v", m.Part(), d, got, want)
			}
			slices.Sort(parts)
			if parts = slices.Compact(parts); !slices.Equal(m.NeighborParts(d), parts) {
				return fmt.Errorf("part %d dim %d: NeighborParts %v, recomputed %v", m.Part(), d, m.NeighborParts(d), parts)
			}
		}
	}
	return nil
}

// globalVolume sums owned element volumes over all ranks.
func globalVolume(dm *DMesh) float64 {
	v := 0.0
	for _, part := range dm.Parts {
		m := part.M
		for el := range m.Elements() {
			if m.IsOwned(el) && !m.IsGhost(el) {
				v += m.Measure(el)
			}
		}
	}
	return pcu.SumFloat64(dm.Ctx, v)
}

// globalBoundaryFaces counts owned model-boundary-classified faces.
func globalBoundaryFaces(dm *DMesh) int64 {
	var n int64
	for _, part := range dm.Parts {
		m := part.M
		for f := range m.Iter(2) {
			if m.IsOwned(f) && !m.IsGhost(f) && m.Classification(f).Dim == 2 {
				n++
			}
		}
	}
	return pcu.SumInt64(dm.Ctx, n)
}

// TestRandomMigrationWithGhostCycles interleaves random migration with
// ghost build/remove cycles.
func TestRandomMigrationWithGhostCycles(t *testing.T) {
	model := gmi.Box(2, 1, 1)
	err := pcu.Run(3, func(ctx *pcu.Ctx) error {
		var serial *mesh.Mesh
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 4, 2, 2)
		}
		dm := Adopt(ctx, model.Model, 3, serial, 1)
		var assign map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			assign = map[mesh.Ent]int32{}
			i := 0
			for el := range serial.Elements() {
				assign[el] = int32(i % 3)
				i++
			}
		}
		if err := TryMigrate(dm, PlansFromAssignment(dm, assign)); err != nil {
			return err
		}
		want := GlobalCount(dm, 3)

		rng := xorshift(42 + uint64(ctx.Rank()))
		for round := 0; round < 5; round++ {
			Ghost(dm, round%2*2, 1) // alternate vertex- and face-bridged
			if err := checkBoundaryTable(dm); err != nil {
				return fmt.Errorf("round %d, ghosted: %w", round, err)
			}
			RemoveGhosts(dm)
			if err := checkBoundaryTable(dm); err != nil {
				return fmt.Errorf("round %d, ghosts removed: %w", round, err)
			}
			plans := make([]Plan, len(dm.Parts))
			for i, part := range dm.Parts {
				plans[i] = Plan{}
				for el := range part.M.Elements() {
					if rng.next()%4 == 0 {
						plans[i][el] = int32(rng.next() % 3)
					}
				}
			}
			if err := TryMigrate(dm, plans); err != nil {
				return err
			}
			if err := Verify(dm); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			if got := GlobalCount(dm, 3); got != want {
				return fmt.Errorf("round %d: %d elements, want %d", round, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
