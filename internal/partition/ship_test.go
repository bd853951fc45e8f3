package partition

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

// mixedMesh is a row of mixedCubes unit cubes holding mixedRegions
// regions.
const (
	mixedCubes   = 12
	mixedRegions = mixedCubes / 3 * (1 + 4 + 6)
)

// mixedMesh fills a row of unit cubes along x, in turn, with a hex, with
// two prisms carrying a tet each on their top triangles, and with six
// pyramids about the cube's centre: every region type, tri and quad
// faces, and quads shared between unlike regions.
func mixedMesh(model *gmi.Model) *mesh.Mesh {
	m := mesh.New(model, 3)
	p := func(x, y, z float64) mesh.Ent { return m.CreateVertex(gmi.NoRef, vec.V{X: x, Y: y, Z: z}) }
	// col[i] is the cycle of lattice corners in the plane x = i: (y, z) =
	// (0,0) (1,0) (1,1) (0,1).
	var col [mixedCubes + 1][4]mesh.Ent
	for i := range col {
		x := float64(i)
		col[i] = [4]mesh.Ent{p(x, 0, 0), p(x, 1, 0), p(x, 1, 1), p(x, 0, 1)}
	}
	build := func(t mesh.Type, vs ...mesh.Ent) { m.BuildFromVerts(t, vs, gmi.NoRef) }
	for i := 0; i < mixedCubes; i++ {
		a, b := col[i], col[i+1] // the cube's x = i and x = i+1 faces, same cycle
		switch i % 3 {
		case 0:
			build(mesh.Hex, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
		case 1:
			// The neighbours share the x faces as whole quads, so the
			// prisms' triangles lie in z = 0 and z = 1.
			build(mesh.Prism, a[0], b[0], b[1], a[3], b[3], b[2])
			build(mesh.Prism, a[0], b[1], a[1], a[3], b[2], a[2])
			apex := p(float64(i)+0.5, 0.5, 2)
			build(mesh.Tet, a[3], b[3], b[2], apex)
			build(mesh.Tet, a[3], b[2], a[2], apex)
		case 2:
			c := p(float64(i)+0.5, 0.5, 0.5)
			build(mesh.Pyramid, a[0], a[1], a[2], a[3], c)
			build(mesh.Pyramid, b[0], b[1], b[2], b[3], c)
			build(mesh.Pyramid, a[0], a[1], b[1], b[0], c)
			build(mesh.Pyramid, a[1], a[2], b[2], b[1], c)
			build(mesh.Pyramid, a[2], a[3], b[3], b[2], c)
			build(mesh.Pyramid, a[3], a[0], b[0], b[3], c)
		}
	}
	return m
}

// mixedA and mixedB are the two assignments of the mixed-mesh tests, by
// element global id (creation order, so along x): A in slabs, B seeded
// at random, so that every part ships to every other.
func mixedA(gid int64) int32 { return int32(gid * 4 / mixedRegions) }

func mixedB(gid int64) int32 {
	rng := xorshift(0x9e3779b97f4a7c15 * uint64(gid+1))
	rng.next()
	return int32(rng.next() % 4)
}

// plansByGid plans every local element to dest(its global id).
func plansByGid(dm *DMesh, dest func(int64) int32) []Plan {
	plans := make([]Plan, len(dm.Parts))
	for i, part := range dm.Parts {
		plans[i] = Plan{}
		for el := range part.M.Elements() {
			plans[i][el] = dest(part.Gid(el))
		}
	}
	return plans
}

// mixedWorld distributes mixedMesh over 2 ranks x 2 parts by mixedA.
// With tagged, every third entity of every dimension carries a float
// and an int tag value.
func mixedWorld(ctx *pcu.Ctx, tagged bool) *DMesh {
	model := gmi.Box(mixedCubes, 1, 1).Model
	var serial *mesh.Mesh
	if ctx.Rank() == 0 {
		serial = mixedMesh(model)
	}
	dm := Adopt(ctx, model, 3, serial, 2)
	if tagged && ctx.Rank() == 0 {
		m := serial
		w, _ := m.Tags.Create("w", ds.TagFloat, 0)
		id, _ := m.Tags.Create("id", ds.TagInt, 0)
		for d := 0; d <= 3; d++ {
			for e := range m.Iter(d) {
				if g := dm.Parts[0].Gid(e); g%3 == 0 {
					m.Tags.SetFloat(w, e, float64(g)/7)
					m.Tags.SetInt(id, e, g*11)
				}
			}
		}
	}
	if err := TryMigrate(dm, plansByGid(dm, mixedA)); err != nil {
		panic(err)
	}
	if n := GlobalCount(dm, 3); n != mixedRegions {
		panic(fmt.Sprintf("mixed mesh has %d regions, want %d", n, mixedRegions))
	}
	return dm
}

// shipTap is what tappedMigrate saw of one migration's step 3 on this
// rank.
type shipTap struct {
	got, want map[[2]int32][]byte // payload by (from, to): as written, and by the reference packer
}

// tappedMigrate is TryMigrate with a tap on step 3, between packing and
// delivery.
func tappedMigrate(dm *DMesh, plans []Plan) (shipTap, error) {
	tap := shipTap{got: map[[2]int32][]byte{}, want: map[[2]int32][]byte{}}
	mg := newMigration(dm)
	defer mg.reset()
	if err := voteAbort(dm, mg.stageResidence(plans, nil), "staging residence updates"); err != nil {
		return tap, err
	}
	var scratch [3][]mesh.Ent
	for i := range mg.parts {
		p := &mg.parts[i]
		for lo := 0; lo < len(p.moves); {
			q, hi := destRun(p.moves, lo)
			var els []mesh.Ent
			for _, mv := range p.moves[lo:hi] {
				els = append(els, moveEnt(mv))
			}
			var b pcu.Buffer
			refPackElements(&b, dm, i, els, &p.tab, &scratch)
			tap.want[[2]int32{p.M.Part(), q}] = b.Raw()
			lo = hi
		}
	}
	mg.packShipment()
	for r, n := range mg.ph.need { // laid out by the first write
		if n == 0 {
			continue
		}
		for rd := pcu.NewReader(dm.Ctx.To(r).Raw()); !rd.Empty(); {
			from, to := rd.Int32(), rd.Int32()
			tap.got[[2]int32{from, to}] = rd.Bytes()
		}
	}
	if err := voteAbort(dm, catchStage(mg.receiveElements), "shipping element closures"); err != nil {
		rollbackCreated(mg.parts)
		return tap, err
	}
	defer dm.suspendGuards()()
	mg.commit()
	return tap, nil
}

// TestShipBytesMatchReference migrates the mixed mesh A -> B -> A and
// compares the payload every (from, to) pair ships, as step 3 writes it
// into the rank buffers, with what the packer it replaced (refPackElements,
// into a buffer of its own) makes of the same run and the same table,
// with and without tag values.
func TestShipBytesMatchReference(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		err := pcu.Run(2, func(ctx *pcu.Ctx) error {
			dm := mixedWorld(ctx, tagged)
			pairs := 0
			for _, dest := range []func(int64) int32{mixedB, mixedA} {
				tap, err := tappedMigrate(dm, plansByGid(dm, dest))
				if err != nil {
					return err
				}
				if len(tap.got) != len(tap.want) {
					return fmt.Errorf("rank %d shipped %d pairs, reference %d", ctx.Rank(), len(tap.got), len(tap.want))
				}
				for pair, want := range tap.want {
					if got := tap.got[pair]; !bytes.Equal(got, want) {
						return fmt.Errorf("pair %v: shipped %d bytes, reference %d; first difference at %d",
							pair, len(got), len(want), firstDiff(got, want))
					}
				}
				pairs += len(tap.want)
			}
			if pairs < 12 {
				return fmt.Errorf("rank %d compared only %d pairs", ctx.Rank(), pairs)
			}
			return Verify(dm)
		})
		if err != nil {
			t.Fatalf("tagged=%v: %v", tagged, err)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// The reference: closure collection and element packing as they were
// before the one-copy shipment — three AdjacentTo walks per element, a
// comparator sort per level, one buffer per pair.

func refClosureBound(m *mesh.Mesh, els []mesh.Ent, d int) (bound [3]int) {
	for _, el := range els {
		v, f := el.T.VertCount(), el.T.DownCount()
		bound[0] += v
		if d > 1 {
			bound[d-1] += f
		}
		if d == 3 {
			bound[1] += v + f - 2
		}
	}
	for dd := range bound {
		bound[dd] = min(bound[dd], m.Count(dd))
	}
	return bound
}

func refClosureLevels(levels *[3][]mesh.Ent, m *mesh.Mesh, els []mesh.Ent, d int, first func(mesh.Ent) bool) {
	bound := refClosureBound(m, els, d)
	for dd := range levels {
		levels[dd] = slices.Grow(levels[dd][:0], bound[dd])
	}
	var buf []mesh.Ent
	for _, el := range els {
		for dd := 0; dd < d; dd++ {
			buf = m.AdjacentTo(el, dd, buf[:0])
			for _, e := range buf {
				if first(e) {
					levels[dd] = append(levels[dd], e)
				}
			}
		}
	}
	for dd := range levels {
		slices.SortFunc(levels[dd], mesh.Ent.Compare)
	}
}

func refPackElements(b *pcu.Buffer, dm *DMesh, partIdx int, els []mesh.Ent, t *resTable, closure *[3][]mesh.Ent) {
	part := dm.Parts[partIdx]
	m := part.M
	d := dm.Dim
	size := 1 + 4*(d+1)
	visited := map[mesh.Ent]bool{}
	refClosureLevels(closure, m, els, d, func(e mesh.Ent) bool {
		if visited[e] {
			return false
		}
		visited[e] = true
		size += recordBytes(e.T, 4+4*len(t.res(e)))
		return true
	})
	for _, el := range els {
		size += recordBytes(el.T, 4+4)
	}
	b.Grow(size)
	movable, _ := movableTags(m)
	writeTagTable(b, movable)
	var gids []int64
	var down []mesh.Ent
	for dd := 0; dd <= d; dd++ {
		level := els
		if dd < d {
			level = closure[dd]
		}
		b.Int32(int32(len(level)))
		for _, e := range level {
			b.Byte(byte(e.T))
			b.Int64(part.Gid(e))
			c := m.Classification(e)
			b.Byte(byte(int8(c.Dim) + 1))
			b.Int32(c.Tag)
			b.Int32s(t.res(e))
			if dd == 0 {
				p := m.Coord(e)
				b.Float64(p.X)
				b.Float64(p.Y)
				b.Float64(p.Z)
			} else {
				down = m.DownTo(e, down[:0])
				gids = gids[:0]
				for _, de := range down {
					gids = append(gids, part.Gid(de))
				}
				b.Int64s(gids)
			}
			writeEntityTags(b, m, movable, e)
		}
	}
}
