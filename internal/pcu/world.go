package pcu

import (
	"errors"
	"fmt"
	"hash/crc32"
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
	// delivery and was repaired from the sender's kept copy.
	Retries int64
	// Replays counts duplicated off-node frames detected by the
	// sequence check and dropped (duplicate suppression).
	Replays int64
	// SanHash is the run's combined op-sequence trace hash, valid after
	// a sanitized run completes (zero otherwise). Identically-seeded
	// sanitized runs produce identical hashes.
	SanHash uint64
}

// Options configures a run beyond its rank count.
type Options struct {
	// Topo is the machine topology; the zero value maps all ranks onto
	// one shared-memory node.
	Topo hwtopo.Topology
	// Faults is an optional deterministic failure schedule.
	Faults *FaultPlan
	// StallTimeout bounds how long the run may go without barrier
	// progress before the watchdog tears it down with a *StallError.
	// Zero selects DefaultStallTimeout; a negative value disables the
	// watchdog entirely.
	StallTimeout time.Duration
	// RetryBudget bounds how many retransmits a receiver requests for
	// one off-node frame that fails CRC/length validation before the
	// failure escalates to a fatal ErrCorruptMessage. Zero selects
	// DefaultRetryBudget; a negative value disables the transient-fault
	// retry layer entirely (every validation failure is fatal, the
	// pre-retry behavior). The layer only arms when Faults is non-nil —
	// the sole source of wire damage — so fault-free runs never pay for
	// it.
	RetryBudget int
	// RetryBackoff is the base exponential backoff before retransmit
	// attempt k (the receiver waits RetryBackoff<<(k-1)). Zero selects
	// DefaultRetryBackoff; a negative value retries without waiting.
	RetryBackoff time.Duration
	// Survivable arms ULFM-style failure mitigation: when a rank dies
	// without teardown (FaultVanish, a real crash) and its surviving
	// peers can no longer advance, the watchdog convicts the dead ranks
	// and revokes the world with a *RevokedError naming them — instead
	// of diagnosing an indistinguishable stall — so a supervisor
	// (pcu.Supervise) can rebuild a shrunken world over the survivors.
	Survivable bool
	// Sanitize enables pumi-san's collective-schedule shadow checking
	// for this run (see internal/san): each rank's op sequence is
	// hashed and cross-checked at every sync point, and divergence
	// fails the run with a *san.DivergenceError naming the first
	// mismatching op. san.Enable turns it on process-wide.
	Sanitize bool
	// Trace, when non-nil, records every rank's blocking operations,
	// deliveries and injected faults into the given flight recorder
	// (which must be sized for at least the run's rank count). When nil
	// and a process-wide collector is installed via SetDefaultTrace, the
	// run records into a fresh trace added to the collector at the end.
	Trace *trace.Trace
	// Conform, when non-nil, drives every rank's blocking-op stream
	// through the given protocol automaton online (see internal/san and
	// `pumi-vet -emit-automata`): each op a rank enters must follow an
	// automaton edge, and a rank returning success must sit in an
	// accepting state. The first off-automaton op fails the run with a
	// *san.ProtocolError naming the op and the expected set.
	Conform *san.Protocol
	// Metrics, when non-nil, is the registry the run's spans and counts
	// (Ctx.Span, Ctx.Count) land in, and turns on per-op metering: op
	// latency and arrival-skew histograms, queue/pool gauges and the
	// per-neighbor traffic matrix (see internal/telemetry). When nil and
	// a process-wide registry is installed via SetDefaultMetrics, the run
	// uses that instead; with neither, spans and counts go to a registry
	// private to the run and ops are not metered. Recording is atomic-only
	// and allocation-free.
	Metrics *telemetry.Registry
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
	// Span and Count record into: the supplied one, else a world-private
	// one. wm holds the pre-resolved per-op handles, non-nil only when a
	// registry was supplied (per-op metering is not free, see DESIGN §10).
	id    int64
	start time.Time
	reg   *telemetry.Registry
	wm    *worldMetrics

	// conform is the online protocol-automaton monitor, non-nil when the
	// run carries Options.Conform.
	conform *san.Conformance

	// resend is the transient-fault retransmit store, armed only when
	// the run carries a fault plan; retryLimit/retryDelay come from
	// Options.RetryBudget/RetryBackoff.
	resend     *resendStore
	retryLimit int
	retryDelay time.Duration

	// survivable worlds revoke (instead of stalling) when ranks die;
	// failed is the conviction list and agree the fault-tolerant
	// agreement state, both fed by the watchdog.
	survivable bool
	failMu     sync.Mutex
	failed     []bool
	agree      agreeState

	slots []any // collective scratch, one slot per rank

	inboxes []inbox

	// ranks is the per-rank progress state the watchdog polls.
	ranks []rankState

	stallMu  sync.Mutex
	stallErr *StallError

	onMsgs, offMsgs, onBytes, offBytes, colls atomic.Int64
	retries, replays                          atomic.Int64
}

// Interned op names: rankState.op holds a pointer so recording progress
// on the hot path is a single atomic store with no boxing allocation.
var (
	opNone      = ""
	opExchange  = "exchange"
	opBarrier   = "barrier"
	opAllreduce = "allreduce"
	opReduce    = "reduce"
	opBcast     = "bcast"
	opAllgather = "allgather"
	opExscan    = "exscan"
	opAgree     = "agree"

	// opWorldStart is the instant-event marker each rank emits when its
	// world starts; offline conformance replay treats the second and
	// later markers on a rank as epoch (shrink) boundaries.
	opWorldStart = "pcu.world"
)

// rankState is one rank's progress record, written lock-free by the
// rank itself and read by the watchdog. Each field is independently
// atomic; the watchdog tolerates skew between fields because it only
// acts on states that repeat across consecutive polls.
type rankState struct {
	op       atomic.Pointer[string] // blocking op currently entered (opNone while computing)
	colls    atomic.Int64
	exchs    atomic.Int64
	blocked  atomic.Bool // parked in the barrier
	done     atomic.Bool // body returned, panicked, or vanished
	vanished atomic.Bool

	// arrival is when (world-monotonic ns) this rank reached the current
	// op's first barrier wait, arrivalSeq the 1-based op index it belongs
	// to. The releasing rank of each collective reads both to attribute
	// the op's cost to its last arriver (recordSkew); the sequence match
	// keeps a fast rank's next-op stamp out of the current op's scan.
	arrival    atomic.Int64
	arrivalSeq atomic.Int64
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
	framed  bool
	wantLen int
	crc     uint32
	seq     int64
	phase   int64
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

	// free and freeRd recycle payload arrays and Readers: Reader.Done
	// returns both to the receiving rank's lists, and To/Exchange grab
	// from them, so steady-state phases are allocation-free.
	free   [][]byte
	freeRd []*Reader

	// arrived and msgs are collection scratch reused across phases. The
	// []Message returned by Exchange aliases msgs and is valid until
	// the next Exchange.
	arrived []delivery
	msgs    []Message

	// phase counts this rank's exchanges; all ranks agree on it because
	// Exchange is collective.
	phase int64

	// pendingFault is a message-level fault armed by beginOp for the
	// current Exchange and applied to each off-node send.
	pendingFault *Fault
	// sanPending marks that this rank published sanitizer state for
	// the current op and must cross-check after the next wait.
	sanPending bool
	// sendSeq/recvSeq track off-node frame sequence numbers per peer.
	sendSeq []int64
	recvSeq []int64

	// tr is this rank's flight recorder (nil when the run is untraced;
	// Recorder methods are nil-safe).
	tr *trace.Recorder

	// Metering state for the current blocking op: its interned name, its
	// 1-based index, the world-monotonic entry time, and how many barrier
	// waits it has performed (the first wait is the op's arrival point).
	opName  *string
	opSeq   int64
	opStart int64
	opWaits int32

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
		k.(*World).poisonWith(cause)
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
// from opt.Faults are injected deterministically, and the collective
// watchdog converts deadlocks into a *StallError naming each rank's
// blocked operation and phase counts.
func RunOpt(n int, opt Options, body func(*Ctx) error) (Stats, error) {
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
		size:       n,
		topo:       topo,
		faults:     opt.Faults,
		retryLimit: opt.RetryBudget,
		retryDelay: opt.RetryBackoff,
		survivable: opt.Survivable,
		failed:     make([]bool, n),
		slots:      make([]any, n),
		inboxes:    make([]inbox, n),
		ranks:      make([]rankState, n),
	}
	if opt.Faults != nil && opt.RetryBudget >= 0 {
		w.resend = newResendStore()
	}
	w.agree.init(w)
	w.id = worldSeq.Add(1)
	w.start = time.Now()
	reg := opt.Metrics
	if reg == nil {
		reg = defaultMetrics.Load()
	}
	w.wm = newWorldMetrics(reg)
	if reg == nil {
		reg = telemetry.NewSized(n)
	}
	w.reg = reg
	if opt.Sanitize || san.Enabled() {
		w.san = newSanState(n)
	}
	if opt.Conform != nil {
		w.conform = san.NewConformance(opt.Conform, n)
	}
	tr := opt.Trace
	var col *trace.Collector
	if tr != nil {
		if tr.Ranks() < n {
			return Stats{}, fmt.Errorf("pcu: trace sized for %d ranks, run has %d", tr.Ranks(), n)
		}
	} else if col = defaultTracer.Load(); col != nil {
		tr = trace.New(n, col.Config())
	}
	w.tr = tr
	w.bar.init(n)
	worlds.Store(w, struct{}{})
	defer worlds.Delete(w)

	timeout := opt.StallTimeout
	if timeout == 0 {
		timeout = DefaultStallTimeout
	}
	stop := make(chan struct{})
	if timeout > 0 {
		go w.watch(timeout, stop)
	}

	if w.wm != nil {
		w.wm.liveRanks.Add(0, float64(n))
		defer w.wm.liveRanks.Add(0, -float64(n))
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer wg.Done()
			rs := &w.ranks[rank]
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = w.classify(rank, rs, p)
				}
				rs.done.Store(true)
				rs.blocked.Store(false)
				rs.op.Store(&opNone)
			}()
			c := &Ctx{
				w: w, rank: rank, tr: tr.Rank(rank),
				spans:  map[string]*telemetry.Histogram{},
				counts: map[string]*telemetry.Counter{},
			}
			// The world-start marker lets offline replay (pumi-trace
			// -conform) see epoch boundaries: Supervise reruns emit one
			// marker per epoch on each rank.
			c.tr.Point(opWorldStart, int64(n))
			err := body(c)
			if err == nil && w.conform != nil {
				// A rank claiming success must have completed the
				// protocol: reject returns from mid-automaton states.
				err = w.conform.Finish(rank)
			}
			errs[rank] = err
		}(r)
	}
	wg.Wait()
	close(stop)
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
func (w *World) classify(rank int, rs *rankState, p any) error {
	if _, ok := p.(vanishSignal); ok {
		// The rank disappears without teardown; its peers deadlock and
		// the watchdog reports the stall.
		rs.vanished.Store(true)
		return nil
	}
	err, ok := p.(error)
	if !ok {
		w.poison()
		return fmt.Errorf("pcu: rank %d panicked: %v\n%s", rank, p, debug.Stack())
	}
	switch {
	case errors.Is(err, ErrPeerFailed) || err == w.bar.causeErr():
		// Propagated teardown, not this rank's fault.
		return err
	case errors.Is(err, ErrFaultInjected) || errors.Is(err, ErrCorruptMessage) ||
		errors.Is(err, san.ErrDivergence) || errors.Is(err, san.ErrOwnership) ||
		errors.Is(err, san.ErrProtocol):
		// Structured failure: keep the message deterministic (no stack)
		// so a seeded replay produces an identical error.
		w.poison()
		return fmt.Errorf("pcu: rank %d: %w", rank, err)
	default:
		w.poison()
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
	// (watchdog stall, AbortAll, or a bare peer-failure echo).
	return cause
}

// Stats returns a snapshot of the world's traffic counters.
func (w *World) Stats() Stats {
	s := Stats{
		OnNodeMsgs:   w.onMsgs.Load(),
		OffNodeMsgs:  w.offMsgs.Load(),
		OnNodeBytes:  w.onBytes.Load(),
		OffNodeBytes: w.offBytes.Load(),
		Collectives:  w.colls.Load(),
		Retries:      w.retries.Load(),
		Replays:      w.replays.Load(),
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

// NodePeers returns the ranks on this rank's node, including itself.
func (c *Ctx) NodePeers() []int {
	return c.w.topo.NodeRanks(c.Node(), c.w.size)
}

// Stats returns a snapshot of the run-wide traffic counters.
func (c *Ctx) Stats() Stats { return c.w.Stats() }

// beginOp records entry into a blocking operation and injects any fault
// the plan schedules for this rank at this op index.
func (c *Ctx) beginOp(name *string, isExchange bool) {
	rs := &c.w.ranks[c.rank]
	rs.op.Store(name)
	c.tr.Begin(*name)
	if m := c.w.conform; m != nil {
		if err := m.Step(c.rank, *name); err != nil {
			panic(err)
		}
	}
	var op int64
	if isExchange {
		op = rs.exchs.Add(1) + rs.colls.Load()
	} else {
		op = rs.colls.Add(1) + rs.exchs.Load()
	}
	c.opName, c.opSeq, c.opWaits = name, op, 0
	if c.w.wm != nil {
		c.opStart = c.w.since()
	}
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
		c.pendingFault = f
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
func (c *Ctx) endOp() {
	rs := &c.w.ranks[c.rank]
	if c.tr != nil {
		if p := rs.op.Load(); p != nil && *p != opNone {
			c.tr.End(*p)
		}
	}
	if wm := c.w.wm; wm != nil && c.opName != nil {
		wm.opNs[c.opName].Observe(c.rank, c.w.since()-c.opStart)
	}
	rs.op.Store(&opNone)
}

// collStart is beginOp for collectives, also bumping the traffic stat
// and recording the op in the sanitizer shadow log.
func (c *Ctx) collStart(name *string) {
	c.w.colls.Add(1)
	c.beginOp(name, false)
	c.sanRecord(*name, 0)
}

// since returns world-monotonic nanoseconds (time since RunOpt began).
func (w *World) since() int64 { return int64(time.Since(w.start)) }

// wait parks in the shared barrier, flagging the rank as blocked so the
// watchdog can tell waiting from computing.
func (c *Ctx) wait() {
	rs := &c.w.ranks[c.rank]
	first := c.opWaits == 0
	c.opWaits++
	if first && c.w.wm != nil {
		// The op's arrival point: compute (and any injected delay) is
		// behind us, the sync wait starts here.
		rs.arrival.Store(c.w.since())
		rs.arrivalSeq.Store(c.opSeq)
	}
	rs.blocked.Store(true)
	defer rs.blocked.Store(false)
	if releaser := c.w.bar.wait(); releaser && first && c.opName != nil {
		// This rank's arrival filled the barrier: it is the op's last
		// arriver, and every peer's arrival stamp for this op is final —
		// attribute the collective before anyone races ahead.
		c.w.recordSkew(c.opName, c.opSeq)
	}
	if c.sanPending {
		// First wait of a sanitized op: every rank has published its
		// schedule hash for this op and none can overwrite it before
		// the op's second wait, so cross-check now.
		c.sanPending = false
		c.w.san.check(c.rank)
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

// releaseBuf returns a payload array to this rank's free list.
func (c *Ctx) releaseBuf(b []byte) {
	if cap(b) == 0 || len(c.free) >= freeListCap {
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
	phase := c.phase
	c.phase++
	for _, p := range c.act {
		b := c.bufs[p]
		data := b.buf
		// The receiver may get these bytes by reference; writing to the
		// buffer after this point would race with the receiver's decode,
		// so further pack calls panic until the next To.
		b.seal()
		b.active = false
		b.buf = nil
		if wm := c.w.wm; wm != nil {
			wm.sendBytes.Observe(c.rank, int64(len(data)))
			wm.neighborBytes.Add(c.rank, p, int64(len(data)))
		}
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
		if c.w.resend != nil {
			// Keep what a retransmit would deliver: a pristine copy with
			// matching framing. A Sticky wire fault damages the kept copy
			// below, so retransmits fail validation too.
			c.w.resend.keep(c.rank, p, d.seq, resentFrame{
				data:    append([]byte(nil), cp...),
				wantLen: d.wantLen,
				crc:     d.crc,
			})
		}
		if f := c.pendingFault; f != nil {
			damage := func(kept *resentFrame) {}
			switch f.Kind {
			case FaultCorrupt:
				if len(cp) > 0 {
					cp[len(cp)/2] ^= 0x40 // wire corruption after framing
					damage = func(kept *resentFrame) { kept.data[len(kept.data)/2] ^= 0x40 }
				} else {
					d.wantLen = 1 // nothing to flip; break the length instead
					damage = func(kept *resentFrame) { kept.wantLen = 1 }
				}
			case FaultTruncate:
				d.data = cp[:len(cp)/2]
				damage = func(kept *resentFrame) { kept.data = kept.data[:len(kept.data)/2] }
			case FaultDuplicate:
				c.deliver(p, d) // replayed frame; the copy below is the dup
			}
			if f.Sticky && c.w.resend != nil {
				if kept, ok := c.w.resend.fetch(c.rank, p, d.seq); ok {
					damage(&kept)
					c.w.resend.keep(c.rank, p, d.seq, kept)
				}
			}
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
	if wm := c.w.wm; wm != nil {
		wm.queueDepth.SetInt(c.rank, int64(len(arrived)))
		wm.poolFree.SetInt(c.rank, int64(len(c.free)))
	}
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
	if c.w.san != nil {
		// Sanitized runs keep the second barrier so every op spans
		// exactly two waits: a fast rank must not overwrite its
		// published shadow slot before a slow rank has checked it.
		c.wait()
	}
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
	badLen := len(d.data) != d.wantLen
	if badLen || crc32.ChecksumIEEE(d.data) != d.crc {
		if data, retries, ok := c.recoverFrame(d); ok {
			c.releaseBuf(d.data)
			return Message{From: d.from, Data: c.pooledReader(data)}, true
		} else if badLen {
			return corrupt(fmt.Sprintf("truncated frame: length %d, frame header says %d", len(d.data), d.wantLen), retries)
		} else {
			return corrupt("CRC mismatch", retries)
		}
	}
	if s := c.w.resend; s != nil {
		s.ack(d.from, c.rank, d.seq)
	}
	return Message{From: d.from, Data: c.pooledReader(d.data)}, true
}

// Barrier blocks until all ranks have called it.
func (c *Ctx) Barrier() {
	c.collStart(&opBarrier)
	defer c.endOp()
	c.wait()
	if c.w.san != nil {
		// Sanitized runs sync twice so a fast rank cannot overwrite
		// its published shadow slot before a slow rank has read it;
		// every other op already spans two waits.
		c.wait()
	}
}

// barrier is a reusable sense-counting barrier. Poisoning releases all
// current and future waiters by panicking them with the teardown cause
// (ErrPeerFailed when a rank dies, a *StallError when the watchdog
// fires), preventing deadlock when a rank cannot arrive.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	count    int
	gen      int
	poisoned bool
	cause    error
}

func (b *barrier) init(n int) {
	b.n = n
	b.cond = sync.NewCond(&b.mu)
}

// wait parks until every rank arrives. It reports whether this caller
// was the releaser — the arrival that filled the generation — which the
// metering layer uses to attribute the collective to its last arriver.
func (b *barrier) wait() bool {
	b.mu.Lock()
	if b.poisoned {
		cause := b.cause
		b.mu.Unlock()
		panic(cause)
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return true
	}
	for gen == b.gen && !b.poisoned {
		b.cond.Wait()
	}
	if gen != b.gen {
		// This generation completed: every rank arrived, so the wait
		// succeeded. A poison that lands in the release window affects
		// the next wait, not this one — otherwise which ranks observe a
		// failure would depend on wakeup timing, and deterministic
		// post-wait work (like the sanitizer's divergence check) could
		// be preempted on some ranks by a peer's teardown.
		b.mu.Unlock()
		return false
	}
	poisoned, cause := b.poisoned, b.cause
	b.mu.Unlock()
	if poisoned {
		panic(cause)
	}
	return false
}

func (b *barrier) poison() { b.poisonWith(ErrPeerFailed) }

// poisonWith poisons the barrier with the given cause; the first cause
// wins and later poisonings keep it.
func (b *barrier) poisonWith(cause error) {
	b.mu.Lock()
	if !b.poisoned {
		b.poisoned = true
		b.cause = cause
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *barrier) isPoisoned() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.poisoned
}

// causeErr returns the teardown cause, or nil if the barrier is healthy.
func (b *barrier) causeErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cause
}

// state returns how many ranks are parked in the current generation and
// the generation number; the watchdog uses both to detect stuck runs.
func (b *barrier) state() (count, gen int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count, b.gen
}
