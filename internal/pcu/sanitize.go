package pcu

// pumi-san runtime wiring: when a run is sanitized (the process-wide
// san.Enable a tool's -san flag sets), every rank
// folds its op sequence and exchange payloads into a san.OpLog trace
// hash, and the run combines them into Stats.SanHash — the run-to-run
// determinism fingerprint. It adds no wait and no message: a sanitized
// run keeps the production schedule.

import (
	"sync"
	"sync/atomic"

	"github.com/fastmath/pumi-go/internal/san"
)

// sanState is the per-World shadow state of a sanitized run.
type sanState struct {
	logs  []*san.OpLog // per-rank op sequence, written by the rank itself
	final atomic.Uint64
}

func newSanState(n int) *sanState {
	s := &sanState{logs: make([]*san.OpLog, n)}
	for i := range s.logs {
		s.logs[i] = san.NewOpLog()
	}
	return s
}

// sanRecord logs this rank's entry into a collective op.
func (c *Ctx) sanRecord(name string, detail uint64) {
	if s := c.w.san; s != nil {
		s.logs[c.rank].Record(name, detail)
	}
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
