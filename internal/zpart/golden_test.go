package zpart

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/meshgen"
)

// hashArrays is FNV-1a over the little-endian bytes of the arrays in
// order, each preceded by its length; it accepts []int32 and []float64.
func hashArrays(arrays ...any) string {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, a := range arrays {
		switch a := a.(type) {
		case []int32:
			word(uint64(len(a)))
			for _, v := range a {
				word(uint64(uint32(v)))
			}
		case []float64:
			word(uint64(len(a)))
			for _, v := range a {
				word(math.Float64bits(v))
			}
		default:
			panic(fmt.Sprintf("hashArrays: %T", a))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPartitionGolden pins every array the extractors and the multilevel
// partitioners return. The extractor hashes were captured at commit
// 3465a69, from the map-based extractors the dense core replaced; the
// partition hashes were re-pinned once when bisections came to be
// balanced to a budgeted tolerance (PR 25). A mismatch means a partition,
// and with it every count the pipeline benchmark reports, has moved.
func TestPartitionGolden(t *testing.T) {
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: hash %s, want %s", name, got, want)
		}
	}
	vessel := meshgen.Vessel3D(gmi.Vessel(10, 1, 0.6, 1.2), 36, 12)
	g, _ := DualGraph(vessel)
	check("DualGraph vessel", hashArrays(g.XAdj, g.Adj, g.EWt), "e08856176e2f1078")
	for _, c := range []struct {
		k    int
		want string
	}{{7, "3e336f04a7a8f643"}, {16, "c0c405025151bf83"}, {32, "6aa898992332cda4"}} {
		check(fmt.Sprintf("MLGraph vessel k=%d", c.k), hashArrays(MLGraph(g, c.k)), c.want)
	}

	bg, _ := BridgeGraph(meshgen.Box3D(gmi.Box(1, 1, 1), 8, 8, 8), 0)
	check("BridgeGraph box8 dim0", hashArrays(bg.XAdj, bg.Adj, bg.EWt), "6a7885774beaf14b")
	check("MLGraph box8 dim0 k=8", hashArrays(MLGraph(bg, 8)), "245c2ae63b41bc81")

	h, _ := ElementHypergraph(meshgen.Box3D(gmi.Box(1, 1, 1), 6, 6, 6), 0)
	check("ElementHypergraph box6 dim0", hashArrays(h.VX, h.Nets, h.NX, h.Pins, h.NWt), "5147c2712ff3fd52")
	check("PHG box6 k=5", hashArrays(PHG(h, 5)), "860fcb1e065f2809")
	check("PHG box6 k=8", hashArrays(PHG(h, 8)), "b982b8e07f9dc6cf")
}
