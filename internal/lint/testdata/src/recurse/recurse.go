// Package recurse exercises the interprocedural fixpoint and the effect
// engine's widening on recursive call cycles. Nothing here is a
// violation: every rank runs the same (recursively generated) schedule,
// so the whole package must stay diagnostic-free; summary tests assert
// the witness chains terminate and the effects are widened Loop terms.
package recurse

import "github.com/fastmath/pumi-go/internal/pcu"

// countdown is self-recursive: one barrier per level.
func countdown(c *pcu.Ctx, d int) {
	if d <= 0 {
		return
	}
	c.Barrier()
	countdown(c, d-1)
}

// pingA and pingB are mutually recursive; the cycle's only
// communication op is the reduction in pingA.
func pingA(c *pcu.Ctx, d int) {
	if d <= 0 {
		return
	}
	_ = pcu.SumInt64(c, int64(d))
	pingB(c, d-1)
}

func pingB(c *pcu.Ctx, d int) {
	if d <= 0 {
		return
	}
	pingA(c, d-1)
}

// spiral recurses while also packing sends; packing is no schedule
// event, so its widened alphabet holds the Exchange alone.
func spiral(c *pcu.Ctx, d int) {
	if d <= 0 {
		return
	}
	c.To(0).Int64(int64(d))
	for range c.Exchange() {
	}
	spiral(c, d-1)
}

// drive runs the recursive helpers uniformly on every rank.
func drive(c *pcu.Ctx, d int) {
	countdown(c, d)
	pingA(c, d)
	spiral(c, d)
}
