package collseq

import "github.com/fastmath/pumi-go/internal/pcu"

// Lexically rank-guarded collectives in their other spellings: through
// a rank variable, a doc-marked collective, the else arm, an Exchange
// under a switch, and a collective hidden behind helpers. (The plain
// `if c.Rank() == 0 { c.Barrier() }` is bad.go's first case.)

func badRankVar(c *pcu.Ctx) {
	r := c.Rank()
	if r > 0 { // want `at the branch, the false path can finish its collectives while the true path must still run SumInt64`
		pcu.SumInt64(c, 1)
	}
}

func badSwitchExchange(c *pcu.Ctx) {
	switch c.Rank() { // want `rank-dependent switch yields divergent collective schedules: at the branch, the default path can finish its collectives while the case-0 path must still run Exchange`
	case 0:
		c.Exchange()
	default:
	}
}

// gatherAll reduces the stats over all ranks (collective).
func gatherAll(c *pcu.Ctx) int64 { return pcu.SumInt64(c, 1) }

func badDocMarked(c *pcu.Ctx) {
	if c.Rank() == 1 { // want `at the branch, the false path can finish its collectives while the true path must still run gatherAll`
		gatherAll(c)
	}
}

func badElse(c *pcu.Ctx) {
	if c.Rank() != 0 { // want `at the branch, the true path can finish its collectives while the false path must still run Barrier`
		_ = c.Size()
	} else {
		c.Barrier()
	}
}

// helperDeep's barrier hides two calls deep behind plain helpers; the
// effect terms see through them. (The helpers are carefully left
// without the doc marker word, so only the callgraph sees them.)

func helperDeep(c *pcu.Ctx) { c.Barrier() }

func helperMid(c *pcu.Ctx) { helperDeep(c) }

func badHiddenCollective(c *pcu.Ctx) {
	if c.Rank() == 0 { // want `at the branch, the false path can finish its collectives while the true path must still run Barrier`
		helperMid(c)
	}
}
