package rankdiv

import "github.com/fastmath/pumi-go/internal/pcu"

func okLexicalGuard(c *pcu.Ctx) {
	// A bare lexical rank guard is collseq territory; rankdiv stays
	// silent so the finding is not reported twice.
	if c.Rank() == 0 {
		c.Barrier()
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
