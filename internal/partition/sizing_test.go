package partition

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// TestPackElementsReservation checks the count planShipment reserves
// the rank buffers by against the bytes writeShipment then puts in them,
// over an A->B->A of the mixed mesh: equal when no entity carries a tag
// value, each buffer still the one array its reservation made, and a
// lower bound once some do.
func TestPackElementsReservation(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		err := pcu.Run(2, func(ctx *pcu.Ctx) error {
			dm := mixedWorld(ctx, tagged)
			for _, dest := range []func(int64) int32{mixedB, mixedA} {
				tap, err := tappedMigrate(dm, plansByGid(dm, dest))
				if err != nil {
					return err
				}
				over := 0
				for r, raw := range tap.sent {
					switch {
					case raw == nil:
					case len(raw) < tap.need[r]:
						return fmt.Errorf("rank %d wrote %d bytes to rank %d, reserved %d", ctx.Rank(), len(raw), r, tap.need[r])
					case !tagged && len(raw) > tap.need[r]:
						return fmt.Errorf("untagged: rank %d wrote %d bytes to rank %d, reserved %d", ctx.Rank(), len(raw), r, tap.need[r])
					case !tagged && cap(raw) != cap(slices.Grow([]byte(nil), len(raw))):
						return fmt.Errorf("untagged: buffer to rank %d holds %d bytes in an array of %d: not one reservation",
							r, len(raw), cap(raw))
					}
					over += len(raw) - tap.need[r]
				}
				if tagged && pcu.SumInt64(ctx, int64(over)) == 0 {
					return fmt.Errorf("tagged: no buffer outgrew the count made without tag values")
				}
			}
			return Verify(dm)
		})
		if err != nil {
			t.Fatalf("tagged=%v: %v", tagged, err)
		}
	}
}

// TestPhaseExchangeReservesOnce ships a 1 MB phase of sixteen part pairs
// over two ranks, once through pair buffers and once written straight
// into the rank buffers, and bounds what the round allocates by the
// bytes it ships: each rank buffer is made once at its final size, where
// growing it under append cost about five times the payload. The pair
// buffers are packed before the measurement starts, the direct messages
// inside it: they have no other copy.
func TestPhaseExchangeReservesOnce(t *testing.T) {
	allocGate(t)
	const pairBytes = 64 << 10
	_, err := pcu.RunOpt(2, pcu.Options{StallTimeout: -1}, func(ctx *pcu.Ctx) error {
		dm := New(ctx, gmi.Box(1, 1, 1).Model, 3, 2)
		ph := dm.beginPhase()
		payload := make([]byte, pairBytes-4)
		shipped := int(pcu.SumInt64(ctx, int64(len(dm.Parts)*dm.NParts()*(12+pairBytes))))
		eachPair := func(f func(from, to int32)) {
			for _, part := range dm.Parts {
				for q := int32(0); q < int32(dm.NParts()); q++ {
					f(part.M.Part(), q)
				}
			}
		}
		for _, direct := range []bool{false, true} {
			if !direct {
				eachPair(func(from, to int32) { ph.to(from, to).Bytes(payload) })
			}
			var before, after runtime.MemStats
			ctx.Barrier()
			if ctx.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			ctx.Barrier()
			if direct {
				eachPair(func(_, to int32) { ph.need[dm.RankOf(to)] += 12 + pairBytes })
				eachPair(func(from, to int32) {
					b := ph.rankBuf(dm.RankOf(to))
					b.Int32(from)
					b.Int32(to)
					b.Int32(pairBytes)
					b.Bytes(payload)
				})
			}
			msgs := ph.exchange()
			ctx.Barrier()
			if ctx.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
			for _, msg := range msgs {
				if got := len(msg.Data.BytesVal()); got != len(payload) {
					return fmt.Errorf("part %d got %d bytes from part %d, want %d", msg.To, got, msg.From, len(payload))
				}
				msg.Data.Done()
			}
			if len(msgs) != 2*dm.NParts() {
				return fmt.Errorf("rank %d received %d messages, want %d", ctx.Rank(), len(msgs), 2*dm.NParts())
			}
			if ctx.Rank() != 0 {
				continue
			}
			allocated := after.TotalAlloc - before.TotalAlloc
			t.Logf("direct=%v: shipped %d bytes and allocated %d", direct, shipped, allocated)
			if allocated*4 > uint64(shipped)*5 {
				return fmt.Errorf("direct=%v: allocated %d bytes to ship %d: want at most 1.25x", direct, allocated, shipped)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// bulkRoundTrip migrates every element to the next part and back.
func bulkRoundTrip(dm *DMesh) error {
	nparts := int32(dm.NParts())
	for _, shift := range []int32{1, nparts - 1} {
		plans := make([]Plan, len(dm.Parts))
		for i, part := range dm.Parts {
			plans[i] = Plan{}
			for el := range part.M.Elements() {
				plans[i][el] = (part.M.Part() + shift) % nparts
			}
		}
		if err := TryMigrate(dm, plans); err != nil {
			return err
		}
	}
	return nil
}

// TestMigrateRetainsNoPayload runs a bulk A->B->A round trip on 2 ranks
// x 4 parts and checks that, once collected, the heap is back within 2 %
// of where it stood: pair buffers, rank buffers and the residence tables
// are garbage when TryMigrate returns. The parts are warmed up by the
// same round trip in an earlier world, so their slot arrays are already
// at their high-water mark, and then handed to a new one, whose Ctx has
// pooled nothing yet — a payload array parked in its free list shows.
func TestMigrateRetainsNoPayload(t *testing.T) {
	allocGate(t)
	model := gmi.Box(4, 1, 1)
	var parts [2][]*Part
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
			return meshgen.Box3D(model, 16, 6, 6)
		}, 4, 4)
		parts[ctx.Rank()] = dm.Parts
		return bulkRoundTrip(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pcu.RunOpt(2, pcu.Options{StallTimeout: -1}, func(ctx *pcu.Ctx) error {
		dm := &DMesh{Ctx: ctx, Model: model.Model, Dim: 3, K: 4, Parts: parts[ctx.Rank()]}
		heap := func() uint64 {
			var ms runtime.MemStats
			ctx.Barrier()
			if ctx.Rank() == 0 {
				runtime.GC()
				runtime.ReadMemStats(&ms)
			}
			ctx.Barrier()
			return ms.HeapAlloc
		}
		before := heap()
		if err := bulkRoundTrip(dm); err != nil {
			return err
		}
		after := heap()
		if err := Verify(dm); err != nil {
			return err
		}
		if ctx.Rank() != 0 {
			return nil
		}
		t.Logf("heap %d B before the round trip, %d B after", before, after)
		if after > before+before/50 {
			return fmt.Errorf("heap grew from %d to %d B over a round trip: more than 2 %% retained", before, after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRepartitionCycleAllocBytes pins what one bulk cycle of the pipeline
// benchmark's repartition workload allocates, on its quick-size vessel
// over 2 ranks x 8 parts: migrate from the multilevel-graph assignment to
// the coordinate-bisection one and back, then Verify — the bytes per
// element measured when the shipment went to one copy, plus 5 %, and no
// more than 3.5 times the bytes the cycle sends (3,386 B and 5.2 times
// with the payload copied pair buffer to rank buffer, the table's receive
// side regrown over its send side and the local checks run twice).
func TestRepartitionCycleAllocBytes(t *testing.T) {
	allocGate(t)
	const k, perElement = 8, 2001
	model := gmi.Vessel(10, 1, 0.6, 1.2)
	_, err := pcu.RunOpt(2, pcu.Options{StallTimeout: -1}, func(ctx *pcu.Ctx) error {
		var serial *mesh.Mesh
		var dests [2][]int32 // destination by element global id: A, B
		if ctx.Rank() == 0 {
			serial = meshgen.Vessel3D(model, 18, 6)
		}
		dm := Adopt(ctx, model.Model, 3, serial, k)
		if ctx.Rank() == 0 {
			g, elsA := zpart.DualGraph(serial)
			in, elsB := zpart.Centroids(serial)
			for i, asg := range [2]struct {
				els    []mesh.Ent
				assign []int32
			}{{elsA, zpart.MLGraph(g, 2*k)}, {elsB, zpart.RCB(in, 2*k)}} {
				dests[i] = make([]int32, len(asg.els))
				for j, el := range asg.els {
					dests[i][dm.Parts[0].Gid(el)] = asg.assign[j]
				}
			}
		}
		for i := range dests {
			dests[i] = pcu.Bcast(ctx, 0, dests[i])
		}
		to := func(dest []int32) []Plan {
			return plansByGid(dm, func(gid int64) int32 { return dest[gid] })
		}
		// snapshot reads the process's allocation counter and the world's
		// traffic on rank 0, with every rank at rest.
		snapshot := func() (allocated uint64, sent int64) {
			var ms runtime.MemStats
			ctx.Barrier()
			if ctx.Rank() == 0 {
				runtime.ReadMemStats(&ms)
				sent = ctx.Stats().OnNodeBytes
			}
			ctx.Barrier()
			return ms.TotalAlloc, sent
		}
		if err := TryMigrate(dm, to(dests[0])); err != nil {
			return err
		}
		var allocated uint64
		var sent int64
		for range 2 { // the first cycle brings the parts' arrays to size
			allocated, sent = 0, 0
			for _, dest := range [][]int32{dests[1], dests[0]} {
				plans := to(dest)
				a0, s0 := snapshot()
				if err := TryMigrate(dm, plans); err != nil {
					return err
				}
				a1, s1 := snapshot()
				allocated, sent = allocated+a1-a0, sent+s1-s0
			}
			a0, s0 := snapshot()
			if err := Verify(dm); err != nil {
				return err
			}
			a1, s1 := snapshot()
			allocated, sent = allocated+a1-a0, sent+s1-s0
		}
		elements := uint64(GlobalCount(dm, 3))
		if ctx.Rank() != 0 {
			return nil
		}
		t.Logf("%d elements: %d B allocated each, %d B sent each (%.2fx)", elements,
			allocated/elements, uint64(sent)/elements, float64(allocated)/float64(sent))
		if got := allocated / elements; got > perElement+perElement/20 {
			return fmt.Errorf("cycle allocated %d B per element, want <= %d + 5 %%", got, perElement)
		}
		if allocated*2 > uint64(sent)*7 {
			return fmt.Errorf("cycle allocated %d B to send %d B: more than 3.5x", allocated, sent)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
