package partition

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// TestPackElementsReservation holds every round of a run on the mixed
// mesh, with and without tag values, to the bytes its senders counted:
// the scatter and A -> B -> A (both contribution rounds, the shipment
// and the stitches of each migration), Verify, and Assemble restitching
// what a checkpoint records. Each rank buffer holds exactly what was laid
// out for it, in the one array its reservation made.
func TestPackElementsReservation(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		sz := tapSizing(t, 2)
		err := pcu.Run(2, func(ctx *pcu.Ctx) error {
			dm := mixedWorld(ctx, tagged)
			for _, dest := range []func(int64) int32{mixedB, mixedA} {
				if err := TryMigrate(dm, plansByGid(dm, dest)); err != nil {
					return err
				}
			}
			if err := Verify(dm); err != nil {
				return err
			}
			_, err := reassemble(dm)
			return err
		})
		if err != nil {
			t.Fatalf("tagged=%v: %v", tagged, err)
		}
		// Three migrations of four rounds, Verify, Assemble.
		if err := sz.check(3*4 + 1 + 1); err != nil {
			t.Fatalf("tagged=%v: %v", tagged, err)
		}
	}
}

// sizing is what tapSizing saw, per rank.
type sizing struct {
	rounds []int   // exchanges checked
	sent   []int   // rank buffers sent
	err    []error // the first that failed
}

// tapSizing holds every exchange of every phase, until the test ends,
// to sizedOnce.
func tapSizing(t *testing.T, ranks int) *sizing {
	sz := &sizing{rounds: make([]int, ranks), sent: make([]int, ranks), err: make([]error, ranks)}
	phaseTap = func(ph *phase, _ []partMsg, delivered bool) {
		if delivered {
			return
		}
		r, sent := ph.dm.Ctx.Rank(), make([][]byte, len(ph.need))
		for q, n := range ph.need {
			if n > 0 {
				sent[q] = ph.dm.Ctx.To(q).Raw()
				sz.sent[r]++
			}
		}
		sz.rounds[r]++
		if err := sizedOnce(sent, ph.need); err != nil && sz.err[r] == nil {
			sz.err[r] = fmt.Errorf("rank %d, exchange %d: %v", r, sz.rounds[r], err)
		}
	}
	t.Cleanup(func() { phaseTap = nil })
	return sz
}

// check reports the first failure, or a rank that took other than
// rounds exchanges or sent in none.
func (sz *sizing) check(rounds int) error {
	for r := range sz.rounds {
		switch {
		case sz.err[r] != nil:
			return sz.err[r]
		case sz.rounds[r] != rounds:
			return fmt.Errorf("rank %d took %d exchanges, want %d", r, sz.rounds[r], rounds)
		case sz.sent[r] == 0:
			return fmt.Errorf("rank %d sent nothing", r)
		}
	}
	return nil
}

// sizedOnce checks rank buffers, nil where nothing went, against the
// bytes counted for them: each holds exactly its count, in the one array
// reserving it made.
func sizedOnce(sent [][]byte, need []int) error {
	for r, raw := range sent {
		switch {
		case raw == nil:
		case len(raw) != need[r]:
			return fmt.Errorf("wrote %d bytes to rank %d, reserved %d", len(raw), r, need[r])
		case cap(raw) != cap(slices.Grow([]byte(nil), len(raw))):
			return fmt.Errorf("buffer to rank %d holds %d bytes in an array of %d: not one reservation", r, len(raw), cap(raw))
		}
	}
	return nil
}

// TestPhaseExchangeReservesOnce ships a 1 MB phase of sixteen part pairs
// over two ranks — counted, laid out, packed in place — and bounds what
// the round allocates by the bytes it ships: each rank buffer is made
// once at its final size, where growing it under append cost about five
// times the payload, and pair buffers copied into it twice.
func TestPhaseExchangeReservesOnce(t *testing.T) {
	allocGate(t)
	const pairBytes = 64 << 10
	_, err := pcu.RunOpt(2, pcu.Options{StallTimeout: -1}, func(ctx *pcu.Ctx) error {
		dm := New(ctx, gmi.Box(1, 1, 1).Model, 3, 2)
		ph := dm.beginPhase()
		payload := make([]byte, pairBytes-4)
		shipped := int(pcu.SumInt64(ctx, int64(len(dm.Parts)*dm.NParts()*(12+pairBytes))))
		var before, after runtime.MemStats
		ctx.Barrier()
		if ctx.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		ctx.Barrier()
		for _, packing := range [2]bool{false, true} {
			for _, part := range dm.Parts {
				for q := int32(0); q < int32(dm.NParts()); q++ {
					if packing {
						ph.to(part.M.Part(), q).Bytes(payload)
					} else {
						ph.count(part.M.Part(), q, pairBytes)
					}
				}
			}
		}
		msgs := ph.exchange()
		ctx.Barrier()
		if ctx.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		for _, msg := range msgs {
			if got := len(msg.Data.BytesNoCopy()); got != len(payload) {
				return fmt.Errorf("part %d got %d bytes from part %d, want %d", msg.To, got, msg.From, len(payload))
			}
			msg.Data.Done()
		}
		if len(msgs) != 2*dm.NParts() {
			return fmt.Errorf("rank %d received %d messages, want %d", ctx.Rank(), len(msgs), 2*dm.NParts())
		}
		if ctx.Rank() != 0 {
			return nil
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("shipped %d bytes and allocated %d", shipped, allocated)
		if allocated*4 > uint64(shipped)*5 {
			return fmt.Errorf("allocated %d bytes to ship %d: want at most 1.25x", allocated, shipped)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPhaseWindowMismatch has one pair of a phase pack one byte more,
// then one byte less, than it counted: the exchange panics naming the
// pair before anything is sent, the others packing as counted.
func TestPhaseWindowMismatch(t *testing.T) {
	for _, extra := range []int{1, -1} {
		err := pcu.Run(1, func(ctx *pcu.Ctx) error {
			dm := New(ctx, gmi.Box(1, 1, 1).Model, 3, 3)
			ph := dm.beginPhase()
			for _, packing := range [2]bool{false, true} {
				for _, from := range []int32{0, 1, 2} {
					for _, to := range []int32{0, 1, 2} {
						n := 8
						if from == 1 && to == 2 && packing {
							n += extra
						}
						if !packing {
							ph.count(from, to, n)
							continue
						}
						b := ph.to(from, to)
						for range n {
							b.Byte(byte(n))
						}
					}
				}
			}
			want := fmt.Sprintf("partition: part 1 packed %d bytes for part 2, counted 8", 8+extra)
			defer func() {
				if p := recover(); p != want {
					t.Errorf("extra %d: exchange panicked with %v, want %q", extra, p, want)
				}
			}()
			ph.exchange()
			return nil
		})
		if err != nil {
			t.Fatalf("extra %d: %v", extra, err)
		}
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
// of where it stood: rank buffers, the phase and the residence tables
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

// TestGhostCycleAllocBytes pins what one cycle of the pipeline
// benchmark's halo workload spends on ghosting, on its quick-size vessel
// over 2 ranks x 8 parts with a float tag value on every element: one
// Ghost layer across faces and RemoveGhosts allocate no more than twice
// the bytes the cycle sends (6.5 times when every (part, peer) message
// grew a pair buffer of its own that the exchange then copied).
func TestGhostCycleAllocBytes(t *testing.T) {
	allocGate(t)
	const k = 8
	model := gmi.Vessel(10, 1, 0.6, 1.2)
	_, err := pcu.RunOpt(2, pcu.Options{StallTimeout: -1}, func(ctx *pcu.Ctx) error {
		var serial *mesh.Mesh
		var assign []int32
		if ctx.Rank() == 0 {
			serial = meshgen.Vessel3D(model, 18, 6)
			g, _ := zpart.DualGraph(serial)
			assign = zpart.MLGraph(g, 2*k)
		}
		dm, err := Distribute(ctx, model.Model, 3, serial, assign, k)
		if err != nil {
			return err
		}
		for _, part := range dm.Parts {
			u, err := part.M.Tags.Create("u", ds.TagFloat, 0)
			if err != nil {
				return err
			}
			for el := range part.M.Elements() {
				part.M.Tags.SetFloat(u, el, float64(part.Gid(el)%1021))
			}
		}
		var allocated uint64
		var sent int64
		for range 2 { // the first cycle brings the parts' arrays to size
			var before, after runtime.MemStats
			var s0 int64
			ctx.Barrier()
			if ctx.Rank() == 0 {
				runtime.ReadMemStats(&before)
				s0 = ctx.Stats().OnNodeBytes
			}
			ctx.Barrier()
			Ghost(dm, 2, 1)
			RemoveGhosts(dm)
			ctx.Barrier()
			if ctx.Rank() == 0 {
				runtime.ReadMemStats(&after)
				allocated, sent = after.TotalAlloc-before.TotalAlloc, ctx.Stats().OnNodeBytes-s0
			}
			ctx.Barrier()
		}
		if err := Verify(dm); err != nil {
			return err
		}
		if ctx.Rank() != 0 {
			return nil
		}
		t.Logf("ghost cycle allocated %d B to send %d B (%.2fx)", allocated, sent, float64(allocated)/float64(sent))
		if allocated > 2*uint64(sent) {
			return fmt.Errorf("ghost cycle allocated %d B to send %d B: more than 2x", allocated, sent)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
