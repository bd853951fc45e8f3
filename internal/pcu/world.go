package pcu

import (
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/san"
	"github.com/fastmath/pumi-go/internal/telemetry"
	"github.com/fastmath/pumi-go/internal/trace"
)

// ErrPeerFailed is the error a rank observes when another rank panicked
// and the run is being torn down.
var ErrPeerFailed = errors.New("pcu: a peer rank failed")

// Stats counts the communication traffic of a run, split into on-node
// (shared-memory, by-reference) and off-node (serialized copy) classes.
type Stats struct {
	OnNodeMsgs   int64
	OffNodeMsgs  int64
	OnNodeBytes  int64
	OffNodeBytes int64
	Collectives  int64
	// Retries counts off-node frames recovered by the transient-fault
	// retransmit layer: each one failed CRC/length validation on
	// delivery and was repaired by its retransmit.
	Retries int64
	// Replays counts duplicated off-node frames detected by the
	// sequence check and dropped (duplicate suppression).
	Replays int64
	// SanHash is the run's combined op-sequence trace hash, valid after
	// a sanitized run completes (zero otherwise). Identically-seeded
	// sanitized runs produce identical hashes.
	SanHash uint64
}

// Options configures a run beyond its rank count. A run is sanitized
// exactly when san.Enabled() holds as it starts (see internal/san): each
// rank folds its op sequence and exchange payloads into a trace hash,
// the run reports their combination as Stats.SanHash, and partition
// attaches its mesh ownership guards. Whether the ranks entered the
// same op is checked at every barrier of every run, sanitized or not
// (*MismatchError).
type Options struct {
	// Topo is the machine topology; the zero value maps all ranks onto
	// one shared-memory node.
	Topo hwtopo.Topology
	// Faults is an optional deterministic failure schedule; a frame it
	// damages carries its own retransmit (retry.go).
	Faults *FaultPlan
	// StallTimeout bounds a barrier wait in which no rank arrives or
	// exits; the run then fails with a *StallError. Zero selects
	// DefaultStallTimeout; a negative value disables only this timeout:
	// a certain deadlock is diagnosed in every run.
	StallTimeout time.Duration
	// Trace, when non-nil, records every rank's blocking operations,
	// deliveries and injected faults into the given flight recorder
	// (which must be sized for at least the run's rank count). When nil
	// and a process-wide collector is installed via SetDefaultTrace, the
	// run records into a fresh trace added to the collector at the end.
	Trace *trace.Trace
}

// World holds the shared state of one parallel run: the reusable
// barrier, the collective scratch slots, the per-rank inboxes and the
// traffic counters. Rank code never touches a World directly; it goes
// through its Ctx.
type World struct {
	size   int
	topo   hwtopo.Topology
	bar    barrier
	faults *FaultPlan
	san    *sanState    // non-nil when the run is sanitized
	tr     *trace.Trace // non-nil when the run is traced

	// id is the process-unique world number introspection output uses
	// and start anchors the world's monotonic clock. reg is the registry
	// Span, Count and Metrics record into: the process-wide one installed
	// by SetDefaultMetrics, else a world-private one.
	id    int64
	start time.Time
	reg   *telemetry.Registry

	slots []any // collective scratch, one slot per rank

	inboxes []inbox

	// ranks holds each rank's op counters.
	ranks []rankState

	onMsgs, offMsgs, onBytes, offBytes atomic.Int64
	retries, replays                   atomic.Int64
}

// Interned op names: an entry holds a pointer, so recording the op a
// rank is in costs no boxing allocation.
var (
	opExchange  = "exchange"
	opBarrier   = "barrier"
	opAllreduce = "allreduce"
	opReduce    = "reduce"
	opBcast     = "bcast"
	opAllgather = "allgather"
	opExscan    = "exscan"
)

// rankState counts the collectives and exchanges one rank has entered,
// written by the rank itself and read by Stats and stall diagnoses.
type rankState struct {
	colls atomic.Int64
	exchs atomic.Int64
}

type inbox struct {
	mu   sync.Mutex
	msgs []delivery
}

// delivery is one in-flight payload. Off-node payloads are framed:
// length, CRC and a per-(sender,receiver) sequence number travel with
// the copied bytes, and the receiver validates all three before
// handing the data to decode. The phase tag keeps a fast sender's
// next-phase deliveries out of a slow receiver's current collection;
// the barrier keeps any rank at most one phase ahead, so an inbox
// holds deliveries from at most two adjacent phases.
type delivery struct {
	from    int
	data    []byte
	wantLen int
	seq     int64
	phase   int64
	// resend is what a retransmit of a damaged frame delivers (retry.go);
	// nil for an undamaged frame.
	resend *delivery
	// crc and framed share the last word, so the resend pointer leaves a
	// delivery at 72 bytes.
	crc    uint32
	framed bool
}

// freeListCap bounds the per-rank buffer and reader free lists; arrays
// past the cap are dropped to the garbage collector so one-directional
// traffic cannot grow a receiver's pool without bound.
const freeListCap = 32

// Ctx is one rank's view of the run. A Ctx must only be used by the
// goroutine it was handed to.
type Ctx struct {
	w    *World
	rank int

	// Sparse peer table: bufs[p] is the packing buffer permanently
	// assigned to peer p (To returns the same *Buffer every phase), and
	// act lists the peers activated in the current phase. Replaces the
	// per-phase map so steady-state packing does not allocate.
	bufs []*Buffer
	act  []int

	// free and freeRd recycle payload arrays and Readers (Reader.Done
	// returns both, Recycle the Reader alone); To/Exchange grab from them.
	free   [][]byte
	freeRd []*Reader

	// arrived and msgs are collection scratch reused across phases. The
	// []Message returned by Exchange aliases msgs and is valid until
	// the next Exchange.
	arrived []delivery
	msgs    []Message

	// pendingFault is a message-level fault armed by beginOp for the
	// current Exchange and applied to each off-node send.
	pendingFault *Fault
	// entry is the op this rank is in, as it arrives at the barrier.
	entry entry
	// sendSeq/recvSeq track off-node frame sequence numbers per peer.
	sendSeq []int64
	recvSeq []int64

	// tr is this rank's flight recorder (nil when the run is untraced;
	// Recorder methods are nil-safe).
	tr *trace.Recorder

	// spans and counts are this rank's name→handle caches for Span and
	// Count: a steady-state record never takes the registry mutex.
	spans  map[string]*telemetry.Histogram
	counts map[string]*telemetry.Counter
}

// worlds tracks the active runs so AbortAll can tear them down.
var worlds sync.Map // *World -> struct{}

// AbortAll poisons every active run's barrier with cause, releasing all
// blocked ranks. It returns the number of runs aborted. Used by command
// wall-clock timeouts to turn a hung run into a diagnosable error.
func AbortAll(cause error) int {
	n := 0
	worlds.Range(func(k, _ any) bool {
		k.(*World).bar.poisonWith(cause)
		n++
		return true
	})
	return n
}

// Run executes body on n ranks mapped onto a single shared-memory node.
func Run(n int, body func(*Ctx) error) error {
	_, err := RunOpt(n, Options{}, body)
	return err
}

// RunOn executes body on n ranks mapped onto the given topology and
// returns the aggregated communication statistics.
func RunOn(n int, topo hwtopo.Topology, body func(*Ctx) error) (Stats, error) {
	return RunOpt(n, Options{Topo: topo}, body)
}

// RunOpt executes body on n ranks under the given options. It returns
// an error if any rank returned an error or panicked; a panic on one
// rank tears down the whole run (peers observe ErrPeerFailed). Faults
// from opt.Faults are injected deterministically, and a collective
// stall — a certain deadlock in every run, or opt.StallTimeout without
// progress — becomes a *StallError naming each rank's blocked op.
func RunOpt(n int, opt Options, body func(*Ctx) error) (Stats, error) {
	return runOpt(n, opt, false, body)
}

// runOpt is RunOpt; a survivable world (Supervise's) is revoked when
// vanished ranks block the survivors, instead of stalled. A negative
// opt.StallTimeout turns off the timer only, never the deadlock check.
func runOpt(n int, opt Options, survivable bool, body func(*Ctx) error) (Stats, error) {
	if n < 1 {
		return Stats{}, fmt.Errorf("pcu: rank count %d < 1", n)
	}
	topo := opt.Topo
	if topo.Cores() == 0 {
		topo = hwtopo.Cluster(1, n)
	}
	if topo.Cores() < n {
		return Stats{}, fmt.Errorf("pcu: %d ranks exceed topology %v", n, topo)
	}
	w := &World{
		size:    n,
		topo:    topo,
		faults:  opt.Faults,
		slots:   make([]any, n),
		inboxes: make([]inbox, n),
		ranks:   make([]rankState, n),
	}
	w.id = worldSeq.Add(1)
	w.start = time.Now()
	w.reg = defaultMetrics.Load()
	if w.reg == nil {
		w.reg = telemetry.NewSized(n)
	}
	if san.Enabled() {
		w.san = newSanState(n)
	}
	tr := opt.Trace
	var col *trace.Collector
	if tr != nil {
		if tr.Ranks() < n {
			return Stats{}, fmt.Errorf("pcu: trace sized for %d ranks, run has %d", tr.Ranks(), n)
		}
	} else if col = defaultTracer.Load(); col != nil {
		tr = trace.New(n)
	}
	w.tr = tr
	w.bar.init(n, survivable, w.start)
	worlds.Store(w, struct{}{})
	defer worlds.Delete(w)

	timeout := opt.StallTimeout
	if timeout == 0 {
		timeout = DefaultStallTimeout
	}
	if timeout > 0 {
		w.bar.arm(timeout, w.stall)
		defer w.bar.timer.Stop()
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				// A vanished rank disappears without teardown: its exit
				// leaves its peers to the barrier's deadlock check.
				p := recover()
				_, vanished := p.(vanishSignal)
				if p != nil && !vanished {
					errs[rank] = w.classify(rank, p)
				}
				if err := w.bar.leave(rank, vanished); err != nil {
					w.stall(err)
				}
			}()
			c := &Ctx{
				w: w, rank: rank, tr: tr.Rank(rank),
				spans:  map[string]*telemetry.Histogram{},
				counts: map[string]*telemetry.Counter{},
			}
			errs[rank] = body(c)
		}(r)
	}
	wg.Wait()
	// Collector-owned traces are added even when the run failed: a
	// failure's timeline is exactly what the trace is for.
	col.Add(tr)
	err := w.verdict(errs)
	if w.san != nil {
		final := w.san.finish()
		if err == nil {
			sanLedgerFold(final)
		}
	}
	return w.Stats(), err
}

// classify converts one rank's recovered panic into its recorded error
// and poisons the barrier when the panic is this rank's own failure
// (rather than the propagated teardown cause).
func (w *World) classify(rank int, p any) error {
	err, ok := p.(error)
	if !ok {
		w.bar.poisonWith(ErrPeerFailed)
		return fmt.Errorf("pcu: rank %d panicked: %v\n%s", rank, p, debug.Stack())
	}
	switch {
	case errors.Is(err, ErrPeerFailed) || err == w.bar.causeErr():
		// Propagated teardown, not this rank's fault.
		return err
	case errors.Is(err, ErrFaultInjected) || errors.Is(err, ErrCorruptMessage) ||
		errors.Is(err, san.ErrOwnership):
		// Structured failure: keep the message deterministic (no stack)
		// so a seeded replay produces an identical error.
		w.bar.poisonWith(ErrPeerFailed)
		return fmt.Errorf("pcu: rank %d: %w", rank, err)
	default:
		w.bar.poisonWith(ErrPeerFailed)
		return fmt.Errorf("pcu: rank %d panicked: %v\n%s", rank, err, debug.Stack())
	}
}

// verdict reduces the per-rank errors to the run's single result,
// reporting real failures before secondary teardown noise. An error the
// ranks agreed on collectively comes back from each of them with the
// same text and is reported once.
func (w *World) verdict(errs []error) error {
	cause := w.bar.causeErr()
	var primary []error
	for _, e := range errs {
		if e == nil || e == cause || errors.Is(e, ErrPeerFailed) {
			continue
		}
		if !slices.ContainsFunc(primary, func(p error) bool { return p.Error() == e.Error() }) {
			primary = append(primary, e)
		}
	}
	if len(primary) > 0 {
		return errors.Join(primary...)
	}
	// No rank-level failure: the teardown cause itself is the story
	// (a stall, AbortAll, or a bare peer-failure echo).
	return cause
}

// stallTrail is how many flight-recorder events per rank a stall
// diagnosis carries: enough to see the phase pattern leading up to the
// stall without flooding the report.
const stallTrail = 8

// stall poisons the barrier with its verdict, a *StallError completed
// first with each rank's op counts, flight-recorder tail and the
// registry report: atomic loads, and Recorder snapshots that lock
// their rings, so safe while ranks run.
func (w *World) stall(err error) {
	if s, ok := err.(*StallError); ok {
		for r := range s.Ranks {
			s.Ranks[r].Collectives = w.ranks[r].colls.Load()
			s.Ranks[r].Exchanges = w.ranks[r].exchs.Load()
		}
		s.Trails = w.tr.TailStrings(stallTrail)
		s.Counters = w.reg.Report()
	}
	w.bar.poisonWith(err)
}

// Stats returns a snapshot of the world's traffic counters.
func (w *World) Stats() Stats {
	s := Stats{
		OnNodeMsgs:   w.onMsgs.Load(),
		OffNodeMsgs:  w.offMsgs.Load(),
		OnNodeBytes:  w.onBytes.Load(),
		OffNodeBytes: w.offBytes.Load(),
		Retries:      w.retries.Load(),
		Replays:      w.replays.Load(),
	}
	for i := range w.ranks {
		s.Collectives += w.ranks[i].colls.Load()
	}
	if w.san != nil {
		s.SanHash = w.san.final.Load()
	}
	return s
}

// Rank returns this rank's id in [0, Size).
func (c *Ctx) Rank() int { return c.rank }

// Size returns the number of ranks in the run.
func (c *Ctx) Size() int { return c.w.size }

// Topo returns the machine topology of the run.
func (c *Ctx) Topo() hwtopo.Topology { return c.w.topo }

// Node returns the node hosting this rank.
func (c *Ctx) Node() int { return c.w.topo.NodeOf(c.rank) }

// SameNode reports whether peer shares this rank's node memory.
func (c *Ctx) SameNode(peer int) bool { return c.w.topo.SameNode(c.rank, peer) }

// Stats returns a snapshot of the run-wide traffic counters.
func (c *Ctx) Stats() Stats { return c.w.Stats() }

// beginOp records entry into a blocking operation and injects any fault
// the plan schedules for this rank at this op index.
func (c *Ctx) beginOp(name *string, isExchange bool) {
	rs := &c.w.ranks[c.rank]
	c.tr.Begin(*name)
	var op int64
	if isExchange {
		op = rs.exchs.Add(1) + rs.colls.Load()
	} else {
		op = rs.colls.Add(1) + rs.exchs.Load()
	}
	c.entry = entry{id: name, name: name, op: op}
	f := c.w.faults.find(c.rank, op)
	if f == nil {
		return
	}
	c.tr.Fault(f.Kind.String(), op)
	switch f.Kind {
	case FaultPanic:
		panic(&FaultError{Fault: *f})
	case FaultVanish:
		panic(vanishSignal{fault: *f})
	case FaultDelay:
		time.Sleep(f.Delay)
	case FaultCorrupt, FaultTruncate, FaultDuplicate:
		// A collective sends no frames: the fault is recorded and spent.
		if isExchange {
			c.pendingFault = f
		}
	}
}

// Ops returns how many blocking operations (collectives plus
// exchanges) this rank has entered so far. Fault plans index operations
// with the same 1-based count, so a harness can probe a deterministic
// workload once and then aim faults at exact phases of a later run.
func (c *Ctx) Ops() int64 {
	rs := &c.w.ranks[c.rank]
	return rs.colls.Load() + rs.exchs.Load()
}

// endOp records leaving a blocking operation.
func (c *Ctx) endOp() { c.tr.End(*c.entry.name) }

// collStart is beginOp for collectives, taking id (when non-nil) as the
// barrier identity of a named reduction and recording the op in the
// sanitizer's trace.
func (c *Ctx) collStart(name, id *string) {
	c.beginOp(name, false)
	if id != nil {
		c.entry.id = id
	}
	c.sanRecord(*name, 0)
}

// since returns world-monotonic nanoseconds (time since RunOpt began).
func (w *World) since() int64 { return int64(time.Since(w.start)) }

// wait blocks in the shared barrier. The wait that makes a deadlock
// certain tears the run down and unwinds with the teardown cause.
func (c *Ctx) wait() {
	if err := c.w.bar.wait(c.rank, c.entry); err != nil {
		c.w.stall(err)
		panic(c.w.bar.causeErr())
	}
}

// grabBuf pops a recycled payload array (length zero, capacity grown by
// earlier phases) or returns nil, letting append allocate.
func (c *Ctx) grabBuf() []byte {
	if n := len(c.free); n > 0 {
		b := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return b
	}
	return nil
}

// releaseBuf returns a payload array to this rank's free list, if any.
func (c *Ctx) releaseBuf(b []byte) {
	if c == nil || cap(b) == 0 || len(c.free) >= freeListCap {
		return
	}
	c.free = append(c.free, b[:0])
}

// releaseReader recycles a fully-consumed pooled Reader struct.
func (c *Ctx) releaseReader(r *Reader) {
	if len(c.freeRd) < freeListCap {
		c.freeRd = append(c.freeRd, r)
	}
}

// pooledReader wraps data in a Reader owned by this rank: its Done
// recycles both the struct and the data array.
func (c *Ctx) pooledReader(data []byte) *Reader {
	if n := len(c.freeRd); n > 0 {
		r := c.freeRd[n-1]
		c.freeRd[n-1] = nil
		c.freeRd = c.freeRd[:n-1]
		*r = Reader{data: data, owner: c}
		return r
	}
	return &Reader{data: data, owner: c}
}

// To returns the packing buffer for the given peer in the current
// communication phase. Each peer has one permanently-assigned buffer:
// the first To of a phase unseals it and attaches a pooled backing
// array; Exchange seals it again when it delivers. Packing to oneself
// is allowed and delivered locally.
func (c *Ctx) To(peer int) *Buffer {
	if peer < 0 || peer >= c.w.size {
		panic(fmt.Sprintf("pcu: rank %d packed to invalid peer %d", c.rank, peer))
	}
	if c.bufs == nil {
		c.bufs = make([]*Buffer, c.w.size)
	}
	b := c.bufs[peer]
	if b == nil {
		b = &Buffer{}
		c.bufs[peer] = b
	}
	if !b.active {
		b.active = true
		b.sealed = false
		b.buf = c.grabBuf()
		c.act = append(c.act, peer)
	}
	return b
}

// deliver appends one payload to peer p's inbox.
func (c *Ctx) deliver(p int, d delivery) {
	ib := &c.w.inboxes[p]
	ib.mu.Lock()
	ib.msgs = append(ib.msgs, d)
	ib.mu.Unlock()
}

// Exchange completes one sparse communication phase: every buffer
// packed with To is delivered, and the messages sent to this rank by
// its peers are returned, sorted by sending rank. All ranks must call
// Exchange the same number of times (it is collective).
//
// The returned messages, their Readers, and any byte slices decoded
// from them without copying are valid until this rank's next Exchange
// or until Reader.Done, whichever comes first: Done recycles the
// message's backing array into this rank's buffer pool.
//
// Off-node payloads are framed with length, CRC32 and a per-pair
// sequence number; a frame failing validation is still returned, but
// its Reader surfaces a structured *CorruptError (wrapping
// ErrCorruptMessage) on first use instead of decoding garbage.
func (c *Ctx) Exchange() []Message {
	c.beginOp(&opExchange, true)
	defer c.endOp()
	// Deliver in sorted peer order for determinism.
	slices.Sort(c.act)
	if c.w.san != nil {
		c.sanRecord(opExchange, c.sanExchangeDetail(c.act))
	}
	// The exchange count, which every rank shares, tags this phase.
	phase := c.w.ranks[c.rank].exchs.Load()
	for _, p := range c.act {
		b := c.bufs[p]
		data := b.buf
		// The receiver may get these bytes by reference; writing to the
		// buffer after this point would race with the receiver's decode,
		// so further pack calls panic until the next To.
		b.seal()
		b.active = false
		b.buf = nil
		if c.SameNode(p) {
			// Shared memory: hand the buffer over by reference. The
			// array's ownership moves to the receiver, whose Reader.Done
			// recycles it into the receiver's pool.
			c.w.onMsgs.Add(1)
			c.w.onBytes.Add(int64(len(data)))
			c.tr.Send(p, len(data), true)
			c.deliver(p, delivery{from: c.rank, data: data, phase: phase})
			continue
		}
		// Distributed memory: the payload crosses the network, so it is
		// copied, like an NIC transfer, and framed for validation. The
		// sender keeps its own array for the next phase.
		c.w.offMsgs.Add(1)
		c.w.offBytes.Add(int64(len(data)))
		c.tr.Send(p, len(data), false)
		cp := append(c.grabBuf(), data...)
		c.releaseBuf(data)
		if c.sendSeq == nil {
			c.sendSeq = make([]int64, c.w.size)
		}
		c.sendSeq[p]++
		d := delivery{
			from:    c.rank,
			data:    cp,
			framed:  true,
			wantLen: len(cp),
			crc:     crc32.ChecksumIEEE(cp),
			seq:     c.sendSeq[p],
			phase:   phase,
		}
		if f := c.pendingFault; f != nil {
			c.sendFaulted(p, d, f)
			continue
		}
		c.deliver(p, d)
	}
	c.act = c.act[:0]
	c.pendingFault = nil
	// One global barrier: after it, every rank has delivered its phase,
	// so this rank's inbox holds everything addressed to it. There is no
	// second barrier — a fast rank may deliver its *next* phase before a
	// slow rank collects, but the phase tag keeps those deliveries out
	// of the current collection, so a sparse phase costs its neighbors
	// plus one synchronization instead of two.
	c.wait()
	ib := &c.w.inboxes[c.rank]
	ib.mu.Lock()
	arrived := c.arrived[:0]
	keep := ib.msgs[:0]
	for _, d := range ib.msgs {
		if d.phase == phase {
			arrived = append(arrived, d)
		} else {
			keep = append(keep, d)
		}
	}
	ib.msgs = keep
	ib.mu.Unlock()
	c.arrived = arrived
	// Stable sort: frames from one sender keep their send order, which
	// the duplicate-detection sequence check depends on.
	slices.SortStableFunc(arrived, func(a, b delivery) int { return a.from - b.from })
	mine := c.msgs[:0]
	for _, d := range arrived {
		if m, keep := c.accept(d); keep {
			mine = append(mine, m)
		}
	}
	c.msgs = mine
	return mine
}

// accept validates one delivery's frame. A replayed frame (sequence
// number already delivered) is dropped — duplicate suppression, keep
// is false. A frame failing length or CRC validation goes through the
// transient-fault retransmit protocol (recoverFrame); only when that
// cannot repair it does accept yield a Message whose Reader fails with
// a *CorruptError on first decode, so unrecoverable corruption can
// never be silently skipped.
func (c *Ctx) accept(d delivery) (Message, bool) {
	if !d.framed {
		return Message{From: d.from, Data: c.pooledReader(d.data)}, true
	}
	if c.recvSeq == nil {
		c.recvSeq = make([]int64, c.w.size)
	}
	corrupt := func(reason string, retries int) (Message, bool) {
		return Message{From: d.from, Data: failedReader(&CorruptError{
			From: d.from, To: c.rank, Reason: reason, Retries: retries,
		})}, true
	}
	want := c.recvSeq[d.from] + 1
	switch {
	case d.seq < want:
		// Replayed frame: already delivered. Drop it like any reliable
		// transport's duplicate suppression and recycle the copy.
		c.w.replays.Add(1)
		c.tr.Fault("replay-drop", d.seq)
		c.releaseBuf(d.data)
		return Message{}, false
	case d.seq > want:
		c.recvSeq[d.from] = d.seq
		return corrupt(fmt.Sprintf("lost frame: expected seq %d, got %d", want, d.seq), 0)
	}
	c.recvSeq[d.from] = d.seq
	if !d.valid() {
		if data, retries, ok := c.recoverFrame(d); ok {
			c.releaseBuf(d.data)
			return Message{From: d.from, Data: c.pooledReader(data)}, true
		} else if len(d.data) != d.wantLen {
			return corrupt(fmt.Sprintf("truncated frame: length %d, frame header says %d", len(d.data), d.wantLen), retries)
		} else {
			return corrupt("CRC mismatch", retries)
		}
	}
	return Message{From: d.from, Data: c.pooledReader(d.data)}, true
}

// Barrier blocks until all ranks have called it.
func (c *Ctx) Barrier() {
	c.collStart(&opBarrier, nil)
	defer c.endOp()
	c.wait()
}

// barrier is a reusable sense-counting barrier. Poisoning releases all
// current and future waiters by panicking them with the teardown cause
// (ErrPeerFailed when a rank dies, a *StallError on a stall), preventing
// deadlock when a rank cannot arrive.
//
// It is also the rendezvous check: each arrival records the op its
// rank is in, and the last arriver compares them before it advances
// the generation. Ranks that met from different ops are not released:
// the last arriver poisons the barrier with a *MismatchError, so no
// rank reads a slot or an inbox filled by a peer in another op.
//
// And it diagnoses stalls from what it counts under mu. The arrival or
// exit that leaves every rank arrived or finished, at least one
// arrived, returns the deadlock verdict for its caller to poison the
// barrier with; a timer armed once per world gives the timeout verdict
// when a rank waits and nothing arrives or exits for the timeout.
//
// Arrivals are counted under mu; gen and poisoned are atomics written
// under mu, so a waiter that is not last can poll them without the
// lock. When every rank has a processor of its own (spin), a waiter
// polls for up to spinBudget before it parks on cond: a parked rank
// takes tens of microseconds to wake, longer than most skew between
// ranks at a sync point.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	count    int // ranks arrived in the current generation
	finished int // ranks whose body returned, panicked or vanished
	spin     bool
	gen      atomic.Int64
	poisoned atomic.Bool
	cause    error
	entries  []entry // per rank, the op it arrived from
	tallies  []tally // per rank, its last arrival or exit

	// start anchors the barrier's clock: tally.at and last (the latest
	// arrival or exit) are durations since it.
	start time.Time
	last  time.Duration

	survivable bool // revoke instead of stalling when ranks vanished
	timeout    time.Duration
	timer      *time.Timer // nil when the stall timeout is off
}

// tally is one rank's progress as a stall diagnosis reports it.
type tally struct {
	gen            int64         // generation of its last arrival; -1 before it and after the exit
	at             time.Duration // its last arrival or exit
	done, vanished bool
}

// spinBudget bounds how long a waiter polls before parking: about
// twice the cost of waking a parked goroutine.
const spinBudget = 100 * time.Microsecond

func (b *barrier) init(n int, survivable bool, start time.Time) {
	b.n = n
	b.cond = sync.NewCond(&b.mu)
	b.entries = make([]entry, n)
	b.tallies = make([]tally, n)
	for r := range b.tallies {
		b.tallies[r].gen = -1
	}
	b.start, b.survivable = start, survivable
	// An oversubscribed world parks at once: a spinning rank would
	// hold the processor the rank it waits for needs.
	b.spin = n <= runtime.GOMAXPROCS(0)
}

// wait blocks until every rank arrives; rank arrives from the op e. An
// arrival that makes a deadlock certain returns its verdict instead.
// The arrival's one clock read is taken before the lock, to keep it out
// of the critical section, and starts the spin budget.
func (b *barrier) wait(rank int, e entry) error {
	now := time.Since(b.start)
	b.mu.Lock()
	if b.poisoned.Load() {
		cause := b.cause
		b.mu.Unlock()
		panic(cause)
	}
	gen := b.gen.Load()
	b.entries[rank] = e
	b.last = now
	b.tallies[rank] = tally{gen: gen, at: now}
	b.count++
	if b.count == b.n {
		b.count = 0
		if err := mismatch(b.entries); err != nil {
			b.poisonLocked(err)
			b.mu.Unlock()
			panic(err)
		}
		b.gen.Store(gen + 1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return nil
	}
	if err := b.deadlock(); err != nil {
		b.mu.Unlock()
		return err
	}
	if b.spin {
		b.mu.Unlock()
		for ; time.Since(b.start)-now < spinBudget && !b.poisoned.Load(); runtime.Gosched() {
			if b.gen.Load() != gen {
				return nil
			}
		}
		b.mu.Lock()
	}
	for gen == b.gen.Load() && !b.poisoned.Load() {
		b.cond.Wait()
	}
	if gen != b.gen.Load() {
		// This generation completed: every rank arrived, so the wait
		// succeeded. A poison that lands in the release window affects
		// the next wait, not this one — otherwise which ranks observe a
		// failure would depend on wakeup timing.
		b.mu.Unlock()
		return nil
	}
	cause := b.cause
	b.mu.Unlock()
	panic(cause)
}

// leave records that rank's body returned, panicked or vanished; an
// exit that makes a deadlock certain returns its verdict.
func (b *barrier) leave(rank int, vanished bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.last = time.Since(b.start)
	b.tallies[rank] = tally{gen: -1, at: b.last, done: true, vanished: vanished}
	b.finished++
	if b.poisoned.Load() {
		return nil
	}
	return b.deadlock()
}

// deadlock returns the deadlock verdict, b.mu held, when every rank has
// arrived or finished and at least one has arrived: none can advance.
// A rank released from a generation is no longer counted as arrived.
func (b *barrier) deadlock() error {
	if b.count == 0 || b.count+b.finished < b.n {
		return nil
	}
	return b.verdict("deadlock: every rank is finished or blocked, none can advance")
}

// arm starts the stall timer, which hands stall the timeout verdict.
func (b *barrier) arm(timeout time.Duration, stall func(error)) {
	b.mu.Lock() // the timer's first check must see it armed
	defer b.mu.Unlock()
	b.timeout = timeout
	b.timer = time.AfterFunc(timeout, func() {
		if err := b.idle(); err != nil {
			stall(err)
		}
	})
}

// idle is the stall timer's check: the timeout verdict when a rank has
// waited the timeout with nothing arriving or exiting, else nil with
// the timer re-armed while the run is live.
func (b *barrier) idle() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	quiet := time.Since(b.start) - b.last
	switch {
	case b.poisoned.Load() || b.finished == b.n:
		// Torn down or over: the timer stays stopped.
	case quiet < b.timeout:
		b.timer.Reset(b.timeout - quiet)
	case b.count > 0:
		return b.verdict(fmt.Sprintf("no progress for %v", b.timeout))
	default:
		b.timer.Reset(b.timeout)
	}
	return nil
}

// verdict is the poison, built under b.mu, for a run that cannot
// advance: a *RevokedError naming the vanished ranks of a survivable
// world, else a *StallError that World.stall completes.
func (b *barrier) verdict(reason string) error {
	now, gen := time.Since(b.start), b.gen.Load()
	var vanished []int
	ranks := make([]RankSnapshot, b.n)
	for r, t := range b.tallies {
		s := &ranks[r]
		*s = RankSnapshot{Rank: r, Blocked: t.gen == gen, Done: t.done, Vanished: t.vanished,
			SinceProgress: (now - t.at).Round(time.Microsecond)}
		if s.Blocked {
			s.Op = *b.entries[r].name
		}
		if t.vanished {
			vanished = append(vanished, r)
		}
	}
	if b.survivable && vanished != nil {
		return &RevokedError{Failed: vanished}
	}
	return &StallError{Reason: reason, Ranks: ranks}
}

// poisonWith poisons the barrier with the given cause; the first cause
// wins and later poisonings keep it.
func (b *barrier) poisonWith(cause error) {
	b.mu.Lock()
	b.poisonLocked(cause)
	b.mu.Unlock()
}

// poisonLocked is poisonWith with b.mu held.
func (b *barrier) poisonLocked(cause error) {
	if !b.poisoned.Load() {
		b.cause = cause
		b.poisoned.Store(true)
	}
	b.cond.Broadcast()
}

// causeErr returns the teardown cause, or nil if the barrier is healthy.
func (b *barrier) causeErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cause
}

// state returns how many ranks have arrived in the current generation
// and how many have finished.
func (b *barrier) state() (arrived, finished int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count, b.finished
}
