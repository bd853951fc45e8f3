package bufdiscipline

import "github.com/fastmath/pumi-go/internal/pcu"

func okTwoPhases(c *pcu.Ctx, peer int) {
	// A fresh To per phase is the contract.
	b := c.To(peer)
	b.Int64(1)
	c.Exchange()
	b2 := c.To(peer)
	b2.Int64(2)
	c.Exchange()
}

func okLoopPhases(c *pcu.Ctx, peer int) {
	// Buffer created and written before each phase's Exchange.
	for i := 0; i < 3; i++ {
		b := c.To(peer)
		b.Int32(int32(i))
		c.Exchange()
	}
}

func okEmptyLoop(c *pcu.Ctx) {
	for _, m := range c.Exchange() {
		for !m.Data.Empty() {
			_ = m.Data.Int64()
		}
	}
}

func okDone(payload []byte) int32 {
	r := pcu.NewReader(payload)
	v := r.Int32()
	r.Done()
	return v
}

func okRemaining(payload []byte) []byte {
	r := pcu.NewReader(payload)
	_ = r.Byte()
	n := r.Remaining()
	_ = n
	return nil
}

func okParamReader(r *pcu.Reader) float64 {
	// Readers handed in as parameters may be partially decoded; the
	// caller owns the exhaustion check.
	return r.Float64()
}

func okAliasBeforeDone(c *pcu.Ctx) int {
	total := 0
	for _, m := range c.Exchange() {
		v := m.Data.BytesNoCopy()
		total += len(v)
		m.Data.Done()
	}
	return total
}

func okCopiedPastDone(c *pcu.Ctx) [][]byte {
	var keep [][]byte
	for _, m := range c.Exchange() {
		v := m.Data.Bytes() // Bytes copies; the slice survives Done
		m.Data.Done()
		keep = append(keep, v)
	}
	return keep
}

func okStandaloneAlias(payload []byte) byte {
	// NewReader readers are not pooled: Done only asserts exhaustion,
	// so aliased slices stay valid.
	r := pcu.NewReader(payload)
	v := r.BytesNoCopy()
	r.Done()
	return v[0]
}

func okAliasPastRecycle(c *pcu.Ctx) [][]byte {
	// Recycle finishes a message but leaves its array alone: the slices
	// cut from it stay valid.
	var keep [][]byte
	for _, m := range c.Exchange() {
		v := m.Data.BytesNoCopy()
		m.Data.Recycle()
		keep = append(keep, v)
	}
	return keep
}

func okBulkPhase(c *pcu.Ctx, peer int, vals []int64) {
	b := c.To(peer)
	b.Int64s(vals)
	for _, m := range c.Exchange() {
		got := m.Data.Int64s()
		_ = got
		m.Data.Done()
	}
}

func okPlannedFraming(c *pcu.Ctx, peers []int, payload *pcu.Buffer, sub *pcu.Reader) {
	// The compiled-plan wire idiom: each record is staged in a reusable
	// scratch buffer and framed length-prefixed with Bytes; the receiver
	// slices each record out with BytesNoCopy into a reusable sub-reader
	// and finishes the message with Done. The scratch buffer and
	// sub-reader are long-lived parameters, not phase buffers.
	for _, q := range peers {
		b := c.To(q)
		b.Int32(int32(q))
		payload.Reset()
		payload.Float64(3)
		b.Bytes(payload.Raw())
	}
	for _, m := range c.Exchange() {
		for !m.Data.Empty() {
			sub.Reset(m.Data.BytesNoCopy())
			_ = sub.Float64()
		}
		m.Data.Done()
	}
}

func okResetStandalone(vals []int32) *pcu.Buffer {
	// Reset is legal on standalone buffers never handed to a phase.
	var b pcu.Buffer
	b.Int32s(vals)
	b.Reset()
	b.Int32s(vals)
	return &b
}
