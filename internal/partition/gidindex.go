package partition

import (
	"fmt"
	"math/bits"

	"github.com/fastmath/pumi-go/internal/mesh"
)

// gidColumns is Part.gids: the global id of every entity slot, by type.
type gidColumns = [mesh.TypeCount][]int64

// gidIndex resolves a global id to the local entity holding it, for the
// entities of one dimension. It is an open-addressed table of packed
// handles and nothing else: an entry's key is its entity's cell of the
// gid column, so a slot costs four bytes. Probing is linear from the
// hash's home; removal shifts the rest of the run back over the hole,
// so the table holds no tombstones and its size follows the live count
// alone — it doubles when an insert would fill more than half of it and
// never shrinks, and a steady state that peaks at the same count each
// cycle never reallocates it. A loader knowing how many entries come
// sizes it once (reserve).
type gidIndex struct {
	tab   []uint32 // packed handle or mesh.PackedNil; len is 0 or 1<<(64-shift)
	n     int      // live entries
	shift uint     // home(gid) = gid * gidHashMul >> shift
}

// gidHashMul is 2^64 / phi: a multiplicative hash spreads both the dense
// serial ids and the part-scoped fresh ids (a part tag over a counter).
const gidHashMul = 0x9E3779B97F4A7C15

const gidIndexMinSlots = 16

func (x *gidIndex) home(gid int64) int { return int(uint64(gid) * gidHashMul >> x.shift) }

// find returns the entity whose column cell holds gid.
func (x *gidIndex) find(gids *gidColumns, gid int64) (mesh.Ent, bool) {
	if x.n == 0 {
		return mesh.NilEnt, false
	}
	mask := len(x.tab) - 1
	for i := x.home(gid); x.tab[i] != mesh.PackedNil; i = (i + 1) & mask {
		if e := mesh.UnpackEnt(x.tab[i]); gids[e.T][e.I] == gid {
			return e, true
		}
	}
	return mesh.NilEnt, false
}

// insert adds e, whose column cell already holds its gid. The gid must
// not be in the table.
func (x *gidIndex) insert(gids *gidColumns, e mesh.Ent) {
	if 2*(x.n+1) > len(x.tab) {
		x.resize(gids, max(2*len(x.tab), gidIndexMinSlots))
	}
	x.place(gids[e.T][e.I], e.Pack())
	x.n++
}

func (x *gidIndex) place(gid int64, h uint32) {
	mask := len(x.tab) - 1
	i := x.home(gid)
	for x.tab[i] != mesh.PackedNil {
		i = (i + 1) & mask
	}
	x.tab[i] = h
}

// reserve sizes the table for n more entries at once: the inserts that
// follow do not grow it.
func (x *gidIndex) reserve(gids *gidColumns, n int) {
	if need := 2 * (x.n + n); need > len(x.tab) {
		x.resize(gids, max(1<<bits.Len(uint(need-1)), gidIndexMinSlots))
	}
}

// resize rehashes the entries into a table of slots slots, a power of
// two.
func (x *gidIndex) resize(gids *gidColumns, slots int) {
	old := x.tab
	x.tab = make([]uint32, slots)
	x.shift = uint(64 - bits.TrailingZeros(uint(len(x.tab))))
	for i := range x.tab {
		x.tab[i] = mesh.PackedNil
	}
	for _, h := range old {
		if h != mesh.PackedNil {
			e := mesh.UnpackEnt(h)
			x.place(gids[e.T][e.I], h)
		}
	}
}

// remove deletes e, whose column cell still holds the gid it was
// inserted under, and closes the hole: each later entry of the run moves
// back unless its home lies cyclically after the hole.
func (x *gidIndex) remove(gids *gidColumns, e mesh.Ent) {
	mask := len(x.tab) - 1
	h := e.Pack()
	i := x.home(gids[e.T][e.I])
	for x.tab[i] != h {
		if x.tab[i] == mesh.PackedNil {
			panic(fmt.Sprintf("partition: %v holds gid %d but the gid index does not hold it", e, gids[e.T][e.I]))
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.tab[j] != mesh.PackedNil; j = (j + 1) & mask {
		o := mesh.UnpackEnt(x.tab[j])
		if k := x.home(gids[o.T][o.I]); (j-k)&mask >= (j-i)&mask {
			x.tab[i] = x.tab[j]
			i = j
		}
	}
	x.tab[i] = mesh.PackedNil
	x.n--
}
