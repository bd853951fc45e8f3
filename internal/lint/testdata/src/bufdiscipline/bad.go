package bufdiscipline

import "github.com/fastmath/pumi-go/internal/pcu"

func badStaleBuffer(c *pcu.Ctx, peer int) {
	b := c.To(peer)
	b.Int64(1)
	c.Exchange()
	b.Int64(2) // want `written after Exchange`
}

func badStaleInLoop(c *pcu.Ctx, peer int) {
	b := c.To(peer)
	for i := 0; i < 3; i++ {
		c.Exchange()
		b.Int32(int32(i)) // want `written after Exchange`
	}
}

func badUncheckedReader(c *pcu.Ctx) {
	for _, m := range c.Exchange() {
		_ = m.Data.Int64() // want `never checked for exhaustion`
	}
}

func badUncheckedAlias(c *pcu.Ctx) {
	for _, m := range c.Exchange() {
		r := m.Data
		_ = r.Float64() // want `never checked for exhaustion`
	}
}

func badUncheckedNewReader(payload []byte) {
	r := pcu.NewReader(payload)
	_ = r.Int32() // want `never checked for exhaustion`
}

func badUncheckedBulk(c *pcu.Ctx) {
	for _, m := range c.Exchange() {
		_ = m.Data.Int64s() // want `never checked for exhaustion`
	}
}

func badAliasPastDone(c *pcu.Ctx) byte {
	var last byte
	for _, m := range c.Exchange() {
		v := m.Data.BytesNoCopy()
		m.Data.Done()
		last = v[0] // want `recycled by Done`
	}
	return last
}

func badAliasEscape(c *pcu.Ctx) [][]byte {
	var keep [][]byte
	for _, m := range c.Exchange() {
		v := m.Data.BytesNoCopy()
		m.Data.Done()
		keep = append(keep, v) // want `recycled by Done`
	}
	return keep
}

func badPlannedNoFinalize(c *pcu.Ctx, sub *pcu.Reader, n int) {
	// A plan-driven receiver knows its record count up front, but the
	// pooled message must still be finished: without Done (or an Empty
	// loop) a sender/plan mismatch leaves trailing bytes undetected and
	// the backing array is never recycled.
	for _, m := range c.Exchange() {
		for i := 0; i < n; i++ {
			sub.Reset(m.Data.BytesNoCopy()) // want `never checked for exhaustion`
		}
	}
}

func badResetDelivered(c *pcu.Ctx, peer int) {
	b := c.To(peer)
	b.Int64s([]int64{1, 2})
	c.Exchange()
	b.Reset() // want `written after Exchange`
}

func badStaleGrow(c *pcu.Ctx, peer int) {
	b := c.To(peer)
	b.Grow(8)
	b.Int64(1)
	c.Exchange()
	b.Grow(8) // want `written after Exchange`
}

// badRankBody is a rank body literal inside a declaration: it is a
// function of its own and is checked like one.
func badRankBody() error {
	return pcu.Run(2, func(c *pcu.Ctx) error {
		b := c.To(1 - c.Rank())
		b.Int64(1)
		c.Exchange()
		b.Int64(2) // want `written after Exchange`
		return nil
	})
}
