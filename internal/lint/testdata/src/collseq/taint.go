package collseq

// Rank dependence that reaches a guard through dataflow rather than a
// bare Rank() call: arithmetic, rank-returning helpers, rank-indexed
// data and assignment chains.

import "github.com/fastmath/pumi-go/internal/pcu"

// myOffset's return value derives from the calling rank; the summary
// layer records this so callers' guards become rank-dependent.
func myOffset(c *pcu.Ctx) int { return c.Rank() * 2 }

func badOffsetGuard(c *pcu.Ctx) {
	off := myOffset(c)
	if off > 0 { // want `rank-dependent branch yields divergent collective schedules: at the branch, the false path can finish its collectives while the true path must still run Barrier`
		c.Barrier()
	}
}

func badHelperUnderTaint(c *pcu.Ctx) {
	// Rank-indexed data taints mine; the collective hides behind a
	// helper, which is transparent to the schedule.
	parts := []int{1, 2, 3, 4}
	mine := parts[c.Rank()]
	if mine > 2 { // want `rank-dependent branch yields divergent collective schedules: at the branch, the false path can finish its collectives while the true path must still run Barrier`
		syncAll(c)
	}
}

func syncAll(c *pcu.Ctx) { c.Barrier() }

func badTaintedLoop(c *pcu.Ctx) {
	n := c.Rank() * 2
	for i := 0; i < n; i++ { // want `loop iteration count is rank-dependent but the body runs collective Barrier`
		c.Barrier()
	}
}

func badTaintedRange(c *pcu.Ctx) {
	data := make([]int, c.Rank())
	for range data { // want `loop iteration count is rank-dependent but the body runs collective SumInt64`
		_ = pcu.SumInt64(c, 1)
	}
}

func badChainedTaint(c *pcu.Ctx) {
	// Taint propagates through assignment chains: off -> shifted.
	off := myOffset(c)
	shifted := off + 1
	if shifted%3 == 0 { // want `rank-dependent branch yields divergent collective schedules: at the branch, the false path can finish its collectives while the true path must still run SumInt64`
		_ = pcu.SumInt64(c, 7)
	}
}

func okReconciled(c *pcu.Ctx) {
	// The guard is rank-derived, but both arms run the same collective
	// schedule — the branch reconciles, every rank does one Bcast.
	off := myOffset(c)
	if off > 0 {
		_ = pcu.Bcast(c, 0, 1)
	} else {
		_ = pcu.Bcast(c, 0, 0)
	}
}

func okLocalWork(c *pcu.Ctx) {
	// Rank-derived guards around purely local work are fine.
	off := myOffset(c)
	if off > 0 {
		println("local work", off)
	}
	c.Barrier()
}

func okTaintedPacking(c *pcu.Ctx) {
	// Rank-derived packing before a uniform Exchange: sends are not
	// part of the collective schedule.
	off := myOffset(c)
	if off%2 == 0 {
		c.To(1).Int64(int64(off))
	}
	for _, m := range c.Exchange() {
		for !m.Data.Empty() {
			_ = m.Data.Int64()
		}
	}
}

func okTaintedLoopNoCollective(c *pcu.Ctx) int {
	// Rank-derived trip counts are fine while the body stays local.
	n := c.Rank() * 2
	sum := 0
	for i := 0; i < n; i++ {
		sum += i
	}
	return sum
}

func badRankFromLiteral(c *pcu.Ctx) {
	// The rank reaches the guard through an assignment inside an
	// immediately invoked literal.
	var r int
	func() { r = c.Rank() }()
	if r == 0 { // want `rank-dependent branch yields divergent collective schedules: at the branch, the false path can finish its collectives while the true path must still run Barrier`
		c.Barrier()
	}
}

func addInts(a, b int) int { return a + b }

func unit() int { return 1 }

// Both return the rank: through a helper argument ahead of a plain
// call, and through a local. A collective's result is rank-uniform.
func rankAhead(c *pcu.Ctx) int { return addInts(c.Rank(), unit()) }

func rankViaLocal(c *pcu.Ctx) int {
	r := c.Rank()
	return r
}

func rankReduced(c *pcu.Ctx) int64 { return pcu.SumInt64(c, int64(c.Rank())) }
