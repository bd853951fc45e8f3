package pcu

// pumi-san runtime wiring: when a run is sanitized (Options.Sanitize or
// the process-wide san.Enable a tool's -san flag sets), every rank keeps
// a san.OpLog shadowing its collective op sequence. Entering an op
// publishes the log's rolling schedule hash into a per-rank slot of the
// shared World before the op's first barrier wait; after that wait —
// when every rank is between the op's two sync points, so all slots
// are current and stable — each rank cross-checks the slots. This is
// the "debug allreduce": it reuses the op's own barrier instead of
// issuing extra collectives, so the sanitized schedule is the real
// schedule. A mismatch panics with a *san.DivergenceError naming the
// first op where the two schedules differ.
//
// Barrier has only one wait of its own, so sanitized runs give it a
// second one: without it, a fast rank could enter its next op and
// overwrite its slot before a slow rank has compared against it. With
// that, every op spans exactly two waits and the publish/check windows
// of consecutive ops never overlap.

import (
	"sync"
	"sync/atomic"

	"github.com/fastmath/pumi-go/internal/san"
)

// sanState is the per-World shadow state of a sanitized run.
type sanState struct {
	logs  []*san.OpLog // per-rank op sequence, written by the rank itself
	sched []uint64     // published schedule hashes, one slot per rank
	op    []string     // published op names (for slot-level diagnosis)
	final atomic.Uint64
}

func newSanState(n int) *sanState {
	s := &sanState{
		logs:  make([]*san.OpLog, n),
		sched: make([]uint64, n),
		op:    make([]string, n),
	}
	for i := range s.logs {
		s.logs[i] = san.NewOpLog()
	}
	return s
}

// sanRecord logs this rank's entry into a collective op and publishes
// the updated schedule hash. Must be called before the op's first
// wait; the matching check runs right after that wait.
func (c *Ctx) sanRecord(name string, detail uint64) {
	s := c.w.san
	if s == nil {
		return
	}
	log := s.logs[c.rank]
	log.Record(name, detail)
	s.sched[c.rank] = log.SchedHash()
	s.op[c.rank] = name
	c.sanPending = true
}

// sanExchangeDetail summarizes the payload shape of the Exchange this
// rank is about to run — destinations, byte counts and contents in
// sorted peer order — for the trace hash. Payload reorderings from
// map-iteration nondeterminism change this even when sizes match.
func (c *Ctx) sanExchangeDetail(peers []int) uint64 {
	detail := san.DetailSeed
	for _, p := range peers {
		detail = san.HashDetail(detail, uint64(p))
		detail = san.HashBytes(detail, c.bufs[p].buf)
	}
	return detail
}

// sanCheck cross-checks the published schedule hashes. It runs with
// every rank parked between the current op's two waits, so slot reads
// are ordered after all slot writes and before any overwrite by a next
// op.
func (s *sanState) check(rank int) {
	mine := s.sched[rank]
	for peer := range s.sched {
		if s.sched[peer] == mine {
			continue
		}
		a, b := s.logs[rank], s.logs[peer]
		i := san.FirstMismatch(a, b)
		op, peerOp := "(none)", "(none)"
		if i < 0 {
			// Hashes differ but one schedule prefixes the other: the
			// first mismatch is where the shorter log ends.
			i = min(a.Len(), b.Len())
		}
		if i < a.Len() {
			op = a.At(i).Name
		}
		if i < b.Len() {
			peerOp = b.At(i).Name
		}
		panic(&san.DivergenceError{Rank: rank, Peer: peer, Index: i, Op: op, PeerOp: peerOp})
	}
}

// finish computes the run's combined trace hash (per-rank trace hashes
// folded in rank order) once all rank goroutines have returned.
func (s *sanState) finish() uint64 {
	final := san.DetailSeed
	for _, l := range s.logs {
		final = san.HashDetail(final, l.Hash())
	}
	s.final.Store(final)
	return final
}

// sanLedger accumulates the trace hashes of completed clean sanitized
// runs process-wide, so a tool can print one fingerprint for a whole
// benchmark session. Failed runs are excluded: their teardown order is
// timing-dependent, so their partial logs do not reproduce.
var sanLedger struct {
	mu   sync.Mutex
	runs int64
	hash uint64
}

func sanLedgerFold(h uint64) {
	sanLedger.mu.Lock()
	sanLedger.runs++
	sanLedger.hash = san.Fold(sanLedger.hash, h)
	sanLedger.mu.Unlock()
}

// SanSummary returns how many clean sanitized runs completed in this
// process and the cumulative op-sequence trace hash over them. Two
// identically-seeded sessions must report identical summaries.
func SanSummary() (runs int64, hash uint64) {
	sanLedger.mu.Lock()
	defer sanLedger.mu.Unlock()
	return sanLedger.runs, sanLedger.hash
}

// ResetSanSummary clears the ledger (tests).
func ResetSanSummary() {
	sanLedger.mu.Lock()
	sanLedger.runs, sanLedger.hash = 0, 0
	sanLedger.mu.Unlock()
}
