package pcu

import (
	"hash/crc32"
	"time"
)

// Transient-fault retry. Off-node frames travel with length, CRC32 and
// a per-pair sequence number; historically any validation failure was
// fatal (ErrCorruptMessage). Real interconnects treat single-frame
// damage as transient: the receiver requests a bounded number of
// retransmits with exponential backoff before escalating. This file is
// that layer.
//
// Wire damage has one source, the fault plan, and the code that damages
// a frame attaches what a retransmit would deliver to that delivery:
// the pristine frame, or — under a Sticky fault, modeling a link that
// damages every transmission — a frame damaged the same way. An
// undamaged frame carries nothing, so fault-free hot paths and armed
// plans that never fire pay nothing (no kept copies, no allocations).
//
//   - a receiver whose validation fails backs off exponentially and
//     revalidates the retransmit, up to DefaultRetryBudget times;
//     success is counted in Stats.Retries and traced as a "retry" fault
//     event;
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

// valid reports whether a framed delivery's bytes match its framing.
func (d *delivery) valid() bool {
	return len(d.data) == d.wantLen && crc32.ChecksumIEEE(d.data) == d.crc
}

// damage applies the wire fault kind to a framed delivery.
func (d *delivery) damage(kind FaultKind) {
	switch {
	case kind == FaultTruncate:
		d.data = d.data[:len(d.data)/2]
	case len(d.data) > 0:
		d.data[len(d.data)/2] ^= 0x40 // wire corruption after framing
	default:
		d.wantLen = 1 // nothing to flip; break the length instead
	}
}

// sendFaulted delivers the framed d to peer p under the wire fault f. A
// duplicate is delivered twice, the replay in an array of its own: the
// receiver recycles a dropped replay into its pool while it may still
// be decoding the accepted copy. A corrupted or truncated frame carries
// its retransmit.
func (c *Ctx) sendFaulted(p int, d delivery, f *Fault) {
	if f.Kind == FaultDuplicate {
		dup := d
		dup.data = append(c.grabBuf(), d.data...)
		c.deliver(p, d)
		c.deliver(p, dup)
		return
	}
	resend := new(delivery)
	*resend = d
	resend.data = append([]byte(nil), d.data...)
	d.damage(f.Kind)
	if f.Sticky {
		resend.damage(f.Kind)
	}
	d.resend = resend
	c.deliver(p, d)
}

// recoverFrame runs the receiver side of the retransmit protocol for a
// delivery that failed length or CRC validation. It returns the
// repaired payload and the number of retransmits spent, or ok=false
// with the spent count when the budget dies or the frame carries no
// retransmit.
func (c *Ctx) recoverFrame(d delivery) (data []byte, retries int, ok bool) {
	if d.resend == nil {
		return nil, 0, false
	}
	for attempt := 1; attempt <= DefaultRetryBudget; attempt++ {
		// Backoff is wall-clock only; it never changes the logical
		// schedule, so seeded runs stay deterministic.
		time.Sleep(DefaultRetryBackoff << (attempt - 1))
		retries = attempt
		if !d.resend.valid() {
			continue // the link is still damaging frames (Sticky fault)
		}
		c.w.retries.Add(1)
		c.tr.Fault("retry", d.seq)
		return d.resend.data, retries, true
	}
	return nil, retries, false
}
