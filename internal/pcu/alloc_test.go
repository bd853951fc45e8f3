package pcu

import (
	"testing"

	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/san"
	"github.com/fastmath/pumi-go/internal/trace"
)

// Allocation-regression tests: the buffer pool's whole point is that
// steady-state communication does not touch the garbage collector.
// These pin the hot paths at exactly zero allocations per phase. They
// are skipped under -race (instrumentation changes allocation
// behavior) and under the sanitizer (schedule hashing allocates by
// design); CI runs them in the plain test lane.

// allocGate skips t when allocation counts are not meaningful.
func allocGate(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if san.Enabled() {
		t.Skip("sanitizer schedule hashing allocates by design")
	}
}

// TestExchangeSteadyStateZeroAlloc drives a ring exchange — To, bulk
// pack, Exchange, zero-copy decode, Done — and requires that after a
// few warm-up phases the whole cycle allocates nothing on any rank.
// Rank 0 measures with testing.AllocsPerRun (a process-wide malloc
// count) while the other ranks run phases in lockstep with it; since
// every rank's phase must be allocation-free, concurrent activity
// cannot produce a false pass.
func TestExchangeSteadyStateZeroAlloc(t *testing.T) {
	allocGate(t)
	const (
		ranks  = 4
		warmup = 8
		runs   = 100
	)
	payload := make([]byte, 256)
	ints := make([]int32, 64)
	var avg float64
	RunOpt(ranks, Options{StallTimeout: -1}, func(c *Ctx) error {
		scratch := make([]int32, 0, len(ints))
		phase := func() {
			b := c.To((c.Rank() + 1) % c.Size())
			b.Bytes(payload)
			b.Int32s(ints)
			for _, m := range c.Exchange() {
				_ = m.Data.BytesNoCopy()
				scratch = m.Data.AppendInt32s(scratch[:0])
				m.Data.Done()
			}
		}
		for i := 0; i < warmup; i++ {
			phase()
		}
		if c.Rank() == 0 {
			avg = testing.AllocsPerRun(runs, phase)
		} else {
			// AllocsPerRun calls its function runs+1 times (one
			// untimed warm-up call); the exchange is collective, so
			// every other rank must run exactly as many phases.
			for i := 0; i < runs+1; i++ {
				phase()
			}
		}
		return nil
	})
	if avg != 0 {
		t.Errorf("steady-state To+Exchange+decode: %.1f allocs/phase, want 0", avg)
	}
}

// TestExchangeOffNodeSteadyStateZeroAlloc repeats the steady-state
// check with every rank on its own node, so each message goes through
// the framed, CRC-checked, copying off-node path — which must also
// recycle through the pools.
func TestExchangeOffNodeSteadyStateZeroAlloc(t *testing.T) {
	allocGate(t)
	const (
		ranks  = 4
		warmup = 8
		runs   = 100
	)
	payload := make([]byte, 256)
	var avg float64
	RunOpt(ranks, Options{Topo: hwtopo.Cluster(ranks, 1), StallTimeout: -1}, func(c *Ctx) error {
		phase := func() {
			c.To((c.Rank() + 1) % c.Size()).Bytes(payload)
			for _, m := range c.Exchange() {
				_ = m.Data.BytesNoCopy()
				m.Data.Done()
			}
		}
		for i := 0; i < warmup; i++ {
			phase()
		}
		if c.Rank() == 0 {
			avg = testing.AllocsPerRun(runs, phase)
		} else {
			for i := 0; i < runs+1; i++ {
				phase()
			}
		}
		return nil
	})
	if avg != 0 {
		t.Errorf("off-node steady-state exchange: %.1f allocs/phase, want 0", avg)
	}
}

// TestExchangeTracedZeroAlloc repeats the steady-state exchange check
// with the flight recorder on: every phase emits span, send and decode
// events into the per-rank rings, and the whole traced cycle must still
// allocate nothing. This is the acceptance bar for leaving tracing
// enabled during benchmarks.
func TestExchangeTracedZeroAlloc(t *testing.T) {
	allocGate(t)
	const (
		ranks  = 4
		warmup = 8
		runs   = 100
	)
	// Two ranks per node so each phase exercises both the on-node and
	// the off-node (framed) send instrumentation.
	topo := hwtopo.Cluster(2, 2)
	tr := trace.New(ranks, trace.Config{})
	payload := make([]byte, 256)
	ints := make([]int32, 64)
	var avg float64
	RunOpt(ranks, Options{Topo: topo, StallTimeout: -1, Trace: tr}, func(c *Ctx) error {
		scratch := make([]int32, 0, len(ints))
		phase := func() {
			b := c.To((c.Rank() + 1) % c.Size())
			b.Bytes(payload)
			b.Int32s(ints)
			for _, m := range c.Exchange() {
				_ = m.Data.BytesNoCopy()
				scratch = m.Data.AppendInt32s(scratch[:0])
				m.Data.Done()
			}
		}
		for i := 0; i < warmup; i++ {
			phase()
		}
		if c.Rank() == 0 {
			avg = testing.AllocsPerRun(runs, phase)
		} else {
			for i := 0; i < runs+1; i++ {
				phase()
			}
		}
		return nil
	})
	if avg != 0 {
		t.Errorf("traced steady-state exchange: %.1f allocs/phase, want 0", avg)
	}
	// The recorder must actually have been recording, not compiled out.
	for r := 0; r < ranks; r++ {
		if tr.Rank(r).Dropped() == 0 && len(tr.Rank(r).Snapshot()) == 0 {
			t.Errorf("rank %d recorded no events during a traced run", r)
		}
	}
}

// TestBulkKernelsZeroAlloc pins the standalone pack/decode kernels:
// once a Buffer's backing array and a decode scratch slice have grown,
// bulk encode and append-decode allocate nothing.
func TestBulkKernelsZeroAlloc(t *testing.T) {
	allocGate(t)
	ints := make([]int32, 512)
	floats := make([]float64, 512)
	var buf Buffer
	var r Reader
	iScratch := make([]int32, 0, len(ints))
	fScratch := make([]float64, 0, len(floats))
	cycle := func() {
		buf.Reset()
		buf.Int32s(ints)
		buf.Float64s(floats)
		r.Reset(buf.Raw())
		iScratch = r.AppendInt32s(iScratch[:0])
		fScratch = r.AppendFloat64s(fScratch[:0])
		r.Done()
	}
	cycle() // grow the backing array once
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("bulk pack+decode cycle: %.1f allocs/op, want 0", avg)
	}
}
