package partition

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// TestPackElementsReservation checks the count packElements reserves
// its buffer by against the bytes it then writes: equal on a mesh whose
// entities carry no tag values, and a lower bound once some do.
func TestPackElementsReservation(t *testing.T) {
	err := pcu.Run(1, func(ctx *pcu.Ctx) error {
		model := gmi.Box(1, 1, 1)
		dm := Adopt(ctx, model.Model, 3, meshgen.Box3D(model, 3, 3, 3), 1)
		part := dm.Parts[0]
		m := part.M
		var els []mesh.Ent
		for el := range m.Elements() {
			if len(els) < 40 {
				els = append(els, el)
			}
		}
		tab := resTable{idx: &part.resIdx}
		defer tab.reset()
		for _, el := range els {
			tab.add(el, 1)
		}
		var closure, scratch [3][]mesh.Ent
		closureLevels(&closure, m, els, 3, tab.touch)
		for dd, level := range closure {
			for i, e := range level {
				// Runs of one to three parts, as staged residences are.
				for q := int32(0); q <= int32((i+dd)%3); q++ {
					tab.add(e, q)
				}
			}
		}
		counted := func(group int32) int {
			n := 1 + 4*4
			for _, en := range tab.entries {
				if en.group == group {
					n += recordBytes(en.e.T, int(en.n))
				}
			}
			for _, el := range els {
				n += recordBytes(el.T, 1)
			}
			return n
		}
		var b pcu.Buffer
		packElements(&b, dm, 0, els, &tab, 1, &scratch)
		if want := counted(1); b.Len() != want {
			return fmt.Errorf("untagged: packed %d bytes, counted %d", b.Len(), want)
		}
		w, err := m.Tags.Create("w", ds.TagFloat, 0)
		if err != nil {
			return err
		}
		ids, err := m.Tags.Create("ids", ds.TagIntSlice, 3)
		if err != nil {
			return err
		}
		for i, el := range els {
			if i%2 == 0 {
				m.Tags.SetFloat(w, el, float64(i))
				m.Tags.SetInts(ids, el, []int64{1, 2, 3})
			}
		}
		b.Reset()
		packElements(&b, dm, 0, els, &tab, 2, &scratch)
		if low := counted(2); b.Len() <= low {
			return fmt.Errorf("tagged: packed %d bytes, no more than the %d counted without tag values", b.Len(), low)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPhaseExchangeReservesOnce packs a 1 MB phase of sixteen part
// pairs over two ranks and bounds what the exchange allocates by the
// bytes it ships: each rank buffer is made once at its final size, where
// growing it under append cost about five times the payload.
func TestPhaseExchangeReservesOnce(t *testing.T) {
	allocGate(t)
	const pairBytes = 64 << 10
	_, err := pcu.RunOpt(2, pcu.Options{StallTimeout: -1}, func(ctx *pcu.Ctx) error {
		dm := New(ctx, gmi.Box(1, 1, 1).Model, 3, 2)
		ph := dm.beginPhase()
		payload := make([]byte, pairBytes-4)
		shipped := 0
		for _, part := range dm.Parts {
			for q := int32(0); q < int32(dm.NParts()); q++ {
				ph.to(part.M.Part(), q).Bytes(payload)
				shipped += 12 + pairBytes
			}
		}
		shipped = int(pcu.SumInt64(ctx, int64(shipped)))
		var before, after runtime.MemStats
		if ctx.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		ctx.Barrier()
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
			return nil
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("exchange shipped %d bytes and allocated %d", shipped, allocated)
		if allocated*4 > uint64(shipped)*5 {
			return fmt.Errorf("exchange allocated %d bytes to ship %d: want at most 1.25x", allocated, shipped)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// bulkRoundTrip migrates every element to the next part and back.
func bulkRoundTrip(dm *DMesh) {
	nparts := int32(dm.NParts())
	for _, shift := range []int32{1, nparts - 1} {
		plans := make([]Plan, len(dm.Parts))
		for i, part := range dm.Parts {
			plans[i] = Plan{}
			for el := range part.M.Elements() {
				plans[i][el] = (part.M.Part() + shift) % nparts
			}
		}
		Migrate(dm, plans)
	}
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
		bulkRoundTrip(dm)
		parts[ctx.Rank()] = dm.Parts
		return nil
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
		bulkRoundTrip(dm)
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
