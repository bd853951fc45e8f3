package pcu

import (
	"hash/crc32"
	"sync"
	"time"
)

// Transient-fault retry. Off-node frames travel with length, CRC32 and
// a per-pair sequence number; historically any validation failure was
// fatal (ErrCorruptMessage). Real interconnects treat single-frame
// damage as transient: the sender keeps the frame until it is
// acknowledged, and the receiver requests a bounded number of
// retransmits with exponential backoff before escalating. This file is
// that layer.
//
// The retransmit store is armed only when a run carries a fault plan —
// the sole source of wire damage in this architecture — so fault-free
// hot paths pay nothing (no kept copies, no map traffic, no
// allocations). When armed:
//
//   - every framed send deposits what a retransmit would deliver: the
//     payload plus the framing the sender claims for it. A Sticky wire
//     fault damages the kept payload while the framing keeps describing
//     the pristine bytes — modeling a link that damages every
//     transmission, not just one;
//   - a receiver whose validation fails fetches the kept frame, backs
//     off exponentially, and revalidates, up to DefaultRetryBudget
//     times; success is counted in Stats.Retries and traced as a
//     "retry" fault event;
//   - a frame that validates (first try or after retries) is
//     acknowledged, dropping the kept copy;
//   - a replayed frame (sequence number already delivered) is dropped
//     and counted in Stats.Replays — duplicate suppression, not an
//     error.
//
// Retry success and failure are deterministic functions of the fault
// plan: a non-sticky fault always recovers on the first retransmit, a
// sticky one always exhausts the budget.

// DefaultRetryBudget is how many retransmits a receiver requests for
// one damaged frame before the failure escalates to a fatal
// ErrCorruptMessage.
const DefaultRetryBudget = 3

// DefaultRetryBackoff is the base backoff before the first retransmit;
// attempt k waits DefaultRetryBackoff<<(k-1).
const DefaultRetryBackoff = 100 * time.Microsecond

// resendKey addresses one kept frame: sender, receiver, and the
// per-pair sequence number it was framed with.
type resendKey struct {
	from, to int
	seq      int64
}

// resentFrame is one kept frame as a retransmit would deliver it: the
// payload bytes plus the framing the sender claims. For a healthy link
// the framing matches the bytes; under a Sticky fault it does not.
type resentFrame struct {
	data    []byte
	wantLen int
	crc     uint32
}

// valid reports whether the frame's bytes match its claimed framing.
func (f resentFrame) valid() bool {
	return len(f.data) == f.wantLen && crc32.ChecksumIEEE(f.data) == f.crc
}

// resendStore holds the kept frames. One mutex suffices: it is touched
// only on framed (off-node) sends of fault-plan runs, never on the
// fault-free hot path.
type resendStore struct {
	mu     sync.Mutex
	frames map[resendKey]resentFrame
}

func newResendStore() *resendStore {
	return &resendStore{frames: make(map[resendKey]resentFrame)}
}

// keep deposits the sender's copy of one framed payload.
func (s *resendStore) keep(from, to int, seq int64, f resentFrame) {
	s.mu.Lock()
	s.frames[resendKey{from, to, seq}] = f
	s.mu.Unlock()
}

// fetch returns the kept frame for a retransmit, leaving it stored so a
// failed revalidation can fetch again.
func (s *resendStore) fetch(from, to int, seq int64) (resentFrame, bool) {
	s.mu.Lock()
	f, ok := s.frames[resendKey{from, to, seq}]
	s.mu.Unlock()
	return f, ok
}

// ack drops the kept frame once the receiver validated a delivery.
func (s *resendStore) ack(from, to int, seq int64) {
	s.mu.Lock()
	delete(s.frames, resendKey{from, to, seq})
	s.mu.Unlock()
}

// recoverFrame runs the receiver side of the retransmit protocol for a
// delivery that failed length or CRC validation. It returns the
// repaired payload and the number of retransmits spent, or ok=false
// with the spent count when the budget dies or no copy was kept.
func (c *Ctx) recoverFrame(d delivery) (data []byte, retries int, ok bool) {
	store := c.w.resend
	if store == nil {
		return nil, 0, false
	}
	for attempt := 1; attempt <= DefaultRetryBudget; attempt++ {
		// Backoff is wall-clock only; it never changes the logical
		// schedule, so seeded runs stay deterministic.
		time.Sleep(DefaultRetryBackoff << (attempt - 1))
		retries = attempt
		resent, kept := store.fetch(d.from, c.rank, d.seq)
		if !kept {
			return nil, retries, false
		}
		if !resent.valid() {
			continue // the link is still damaging frames (Sticky fault)
		}
		store.ack(d.from, c.rank, d.seq)
		c.w.retries.Add(1)
		c.tr.Fault("retry", d.seq)
		return resent.data, retries, true
	}
	return nil, retries, false
}
