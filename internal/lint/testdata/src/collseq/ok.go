package collseq

import "github.com/fastmath/pumi-go/internal/pcu"

func okUnguarded(c *pcu.Ctx) {
	c.Barrier()
	_ = pcu.SumInt64(c, 1)
}

func okBothArmsEqual(c *pcu.Ctx) {
	// Root-vs-rest with equal schedules: Bcast on both arms.
	if c.Rank() == 0 {
		_ = pcu.Bcast(c, 0, 42)
	} else {
		_ = pcu.Bcast(c, 0, 0)
	}
}

func okEarlyReturnEqual(c *pcu.Ctx) int {
	// Early-return spelling: the guarded arm and the tail run the same
	// collective sequence, so composing each arm with the continuation
	// proves them equal.
	if c.Rank() == 0 {
		return pcu.Bcast(c, 0, 42)
	}
	return pcu.Bcast(c, 0, 0)
}

func okGuardedPacking(c *pcu.Ctx) {
	// Rank-divergent packing before a uniform Exchange is the canonical
	// sparse pattern; sends are erased from the collective schedule.
	if c.Rank() == 0 {
		c.To(1).Int64(7)
	}
	for _, m := range c.Exchange() {
		for !m.Data.Empty() {
			_ = m.Data.Int64()
		}
	}
}

func okRootWork(c *pcu.Ctx) {
	// Rank-guarded local work, then a uniform barrier.
	if c.Rank() == 0 {
		println("root bookkeeping")
	}
	c.Barrier()
}

func okRankLoopNoCollective(c *pcu.Ctx) int {
	// Rank-dependent trip count is fine while the body stays local.
	sum := 0
	for i := 0; i < c.Rank(); i++ {
		sum += i
	}
	return sum
}

func okEqualViaDifferentHelpers(c *pcu.Ctx) {
	// Different helpers, same schedule language: both arms are Barrier.
	if c.Rank() == 0 {
		helperLeft(c)
	} else {
		helperRight(c)
	}
}

func okEqualAtDifferentDepths(c *pcu.Ctx) {
	// Equal schedules reached one and two calls deep.
	if c.Rank() == 0 {
		helperMid(c)
	} else {
		helperDeep(c)
	}
}

func helperLeft(c *pcu.Ctx)  { c.Barrier() }
func helperRight(c *pcu.Ctx) { c.Barrier() }

func okLiteralDefinition(c *pcu.Ctx) {
	// Defining a collective closure under a guard communicates nothing;
	// both arms are ε and the call site afterwards is uniform.
	var f func()
	if c.Rank() == 0 {
		f = func() { c.Barrier() }
	} else {
		f = func() { c.Barrier() }
	}
	f()
}

func okNestedUniform(c *pcu.Ctx) {
	// A rank-dependent switch whose arms all run the same sequence.
	switch c.Rank() % 2 {
	case 0:
		c.Barrier()
		_ = pcu.SumInt64(c, 1)
	default:
		c.Barrier()
		_ = pcu.SumInt64(c, 9)
	}
}
