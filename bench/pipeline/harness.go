package pipeline

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/fastmath/pumi-go/internal/pcu"
)

// traffic is the part of pcu.Stats the benchmark reports, as a value
// that subtracts.
type traffic struct {
	Msgs, OnNodeBytes, OffNodeBytes, Collectives, Retries int64
}

func trafficOf(s pcu.Stats) traffic {
	return traffic{
		Msgs:         s.OnNodeMsgs + s.OffNodeMsgs,
		OnNodeBytes:  s.OnNodeBytes,
		OffNodeBytes: s.OffNodeBytes,
		Collectives:  s.Collectives,
		Retries:      s.Retries,
	}
}

func (t traffic) sub(o traffic) traffic {
	return traffic{t.Msgs - o.Msgs, t.OnNodeBytes - o.OnNodeBytes, t.OffNodeBytes - o.OffNodeBytes,
		t.Collectives - o.Collectives, t.Retries - o.Retries}
}

func (t traffic) add(o traffic) traffic {
	return traffic{t.Msgs + o.Msgs, t.OnNodeBytes + o.OnNodeBytes, t.OffNodeBytes + o.OffNodeBytes,
		t.Collectives + o.Collectives, t.Retries + o.Retries}
}

// counters is a snapshot of the process-wide counters rank 0 reads at
// the edges of a timed region, while every other rank waits at the
// gate. barriers counts the harness's own barriers, so they can be
// taken out of the collective count.
type counters struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	traffic             traffic
	barriers            int64
}

func (c counters) sub(o counters) counters {
	return counters{c.mallocs - o.mallocs, c.allocBytes - o.allocBytes, c.gcCycles - o.gcCycles,
		c.gcPauseNs - o.gcPauseNs, c.traffic.sub(o.traffic), c.barriers - o.barriers}
}

func (c counters) add(o counters) counters {
	return counters{c.mallocs + o.mallocs, c.allocBytes + o.allocBytes, c.gcCycles + o.gcCycles,
		c.gcPauseNs + o.gcPauseNs, c.traffic.add(o.traffic), c.barriers + o.barriers}
}

// cycleSample is what one cycle contributes: the wall-clock and counter
// deltas of its timed stages only, and the state of the mesh at its end.
type cycleSample struct {
	ref       float64 // reference kernel's time around the cycle
	seconds   float64
	delta     counters
	elements  int64
	imbalance float64
	failed    bool
}

// passData collects one pass's measurements. Only rank 0 writes it.
type passData struct {
	setupS   []float64
	setupRef []float64
	cycles   []cycleSample        // timed cycles; the warm-up cycle is not kept
	notes    map[string][]float64 // per-layer values noted per timed cycle or set-up
	setupSum map[string]counters  // counter deltas of set-up stages, by name
	ops      int
	failed   int
	failures []string
	peakHeap uint64
	live     uint64 // heap in use after a GC at the end of the last cycle, minus the pre-set-up heap
	entities int64  // global entity count over all dimensions at that point
	recs     []*Recorder
}

// gate holds the other ranks while rank 0 reads process-wide counters.
// A pcu barrier cannot do it: a released rank may enter its next
// collective before rank 0 has read the collective count, and the
// count would then differ from run to run.
type gate struct{ seq atomic.Int64 }

// harness is one rank's view of a pass: every rank runs the same calls
// in the same order (they are collective), rank 0 keeps the clock.
type harness struct {
	ctx    *pcu.Ctx
	cfg    Config
	pass   *passData
	gate   *gate
	rec    *Recorder // nil in the untraced pass
	traced bool

	cycle     int // -1 during set-up, 0 for the warm-up cycle
	cycleSpan int
	running   bool
	segStart  time.Time
	edge      counters
	acc       cycleSample
	barriers  int64
	gateSeq   int64
	opIndex   int
	failMask  uint64
	firstFail string // this rank's first failure of the cycle
	scratch   *refScratch
	refSink   int64
	lastRef   float64
	refFresh  bool // nothing has run since lastRef was measured
	refBefore float64
}

func (h *harness) rank0() bool { return h.ctx.Rank() == 0 }

func (h *harness) barrier() {
	h.barriers++
	h.ctx.Barrier()
}

// snapshot has rank 0 read the process-wide counters while every other
// rank waits, and returns them on rank 0. Call it right after a barrier,
// so that all ranks have entered the same collectives.
func (h *harness) snapshot() counters {
	h.gateSeq++
	if !h.rank0() {
		for h.gate.seq.Load() < h.gateSeq {
			runtime.Gosched()
		}
		return counters{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.pass.peakHeap {
		h.pass.peakHeap = ms.HeapAlloc
	}
	c := counters{
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs,
		traffic: trafficOf(h.ctx.Stats()), barriers: h.barriers,
	}
	h.gate.seq.Store(h.gateSeq)
	return c
}

// since is the counter delta from an earlier snapshot to now, with the
// harness's own barriers (one collective per rank each) taken out of
// the library's collective count.
func (h *harness) since(before counters) counters {
	d := h.snapshot().sub(before)
	d.traffic.Collectives -= d.barriers * int64(h.ctx.Size())
	return d
}

// resume starts the cycle's stopwatch unless it is already running.
func (h *harness) resume() {
	if h.running {
		return
	}
	h.barrier()
	h.edge = h.snapshot()
	h.barrier()
	h.segStart = time.Now()
	h.running = true
}

// pause stops the stopwatch, adding the segment to the cycle's sample.
func (h *harness) pause() {
	if !h.running {
		return
	}
	h.barrier()
	elapsed := time.Since(h.segStart)
	d := h.since(h.edge)
	if h.rank0() {
		h.acc.seconds += elapsed.Seconds()
		h.acc.delta = h.acc.delta.add(d)
	}
	h.running = false
}

// span runs fn inside a recorded span when the pass is traced: a barrier
// and a timestamp on each side, so the span is the stage's time on the
// slowest rank, with rank 0's counter deltas attached.
func (h *harness) span(name string, untimed bool, fn func() error) error {
	if !h.traced {
		return fn()
	}
	h.barrier()
	before := h.snapshot()
	h.barrier()
	id := h.rec.Begin(name, h.cycle, h.cycleSpan, untimed)
	err := fn()
	h.barrier()
	h.rec.End(id)
	d := h.since(before)
	if s := h.rec.at(id); s != nil && h.rank0() {
		s.Mallocs, s.Traffic = d.mallocs, d.traffic
	}
	return err
}

// op accounts one attempted operation and its outcome on this rank;
// endCycle combines the ranks' outcomes.
func (h *harness) op(name string, err error) {
	h.opIndex++
	if err != nil {
		h.failMask |= 1 << (uint(h.opIndex-1) % 64)
		if h.firstFail == "" {
			h.firstFail = fmt.Sprintf("cycle %d %s: %v", h.cycle, name, err)
		}
	}
}

// stage runs one timed stage of the cycle.
func (h *harness) stage(name string, fn func() error) {
	h.refFresh = false
	h.resume()
	h.op(name, h.span(name, false, fn))
}

// untimed runs work the cycle's stopwatch must not see: resets, plan
// building, correctness checks. It counts as an operation all the same.
func (h *harness) untimed(name string, fn func() error) {
	h.refFresh = false
	h.pause()
	h.op(name, h.span(name, true, fn))
}

// note keeps a per-layer value (a count, a ratio) for the current timed
// cycle or set-up; the warm-up cycle's notes are discarded.
func (h *harness) note(name string, v float64) {
	if h.rank0() && h.cycle != 0 {
		h.pass.notes[name] = append(h.pass.notes[name], v)
	}
}

// setupStage times one stage of set-up on rank 0, barrier to barrier,
// in both passes alike, and records it as a span when traced.
func (h *harness) setupStage(name string, fn func() error) error {
	h.refFresh = false
	h.barrier()
	before := h.snapshot()
	h.barrier()
	start := time.Now()
	id := -1
	if h.traced {
		id = h.rec.Begin(name, h.cycle, h.cycleSpan, true)
	}
	err := fn()
	h.barrier()
	elapsed := time.Since(start)
	if h.traced {
		h.rec.End(id)
	}
	d := h.since(before)
	if h.rank0() {
		h.pass.notes[name+"_s"] = append(h.pass.notes[name+"_s"], elapsed.Seconds())
		h.pass.setupSum[name] = h.pass.setupSum[name].add(d)
	}
	return agree(h.ctx, err)
}

// agree turns a rank-local error into the same error on every rank, so
// no rank leaves a collective sequence alone.
func agree(ctx *pcu.Ctx, err error) error {
	msgs := pcu.Allgather(ctx, errString(err))
	for r, m := range msgs {
		if m != "" {
			return fmt.Errorf("rank %d: %s", r, m)
		}
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// beginCycle opens cycle n (0 is the warm-up).
func (h *harness) beginCycle(n int) {
	h.cycle = n
	h.acc = cycleSample{}
	h.opIndex, h.failMask, h.firstFail = 0, 0, ""
	h.cycleSpan = -1
	// The reference reading collects first, so every cycle starts from
	// a collected heap: where the previous cycle left the collector
	// does not decide how much collection this cycle's stages pay for.
	h.refBefore = h.reference()
	if h.traced {
		h.barrier()
		h.cycleSpan = h.rec.Begin("cycle", n, -1, false)
	}
}

// endCycle closes the cycle: the stopwatch stops, the ranks' operation
// outcomes are combined, and rank 0 keeps the sample unless an
// operation failed (a failed operation voids its cycle's sample).
func (h *harness) endCycle(elements int64, imbalance float64) {
	h.pause()
	if h.traced {
		h.barrier()
		h.rec.End(h.cycleSpan)
	}
	refAfter := h.reference()
	mask := pcu.Allreduce(h.ctx, h.failMask, func(a, b uint64) uint64 { return a | b })
	var why []string
	if mask != 0 {
		why = pcu.Allgather(h.ctx, h.firstFail)
	}
	if !h.rank0() {
		return
	}
	for r, msg := range why {
		if msg != "" && len(h.pass.failures) < 16 {
			h.pass.failures = append(h.pass.failures, fmt.Sprintf("rank %d %s", r, msg))
		}
	}
	h.pass.ops += h.opIndex
	h.pass.failed += bits.OnesCount64(mask)
	if h.cycle == 0 {
		return
	}
	h.acc.failed = mask != 0
	h.acc.ref = (h.refBefore + refAfter) / 2
	h.acc.elements = elements
	h.acc.imbalance = imbalance
	h.pass.cycles = append(h.pass.cycles, h.acc)
}
