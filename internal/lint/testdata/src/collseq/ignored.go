package collseq

import "github.com/fastmath/pumi-go/internal/pcu"

// //pumi-vet:ignore directives: deliberate invariant violations (e.g.
// deadlock-diagnosis tests) suppress the matching analyzer on their own
// line or the line below; a directive naming a different analyzer does
// not suppress, and neither does one two lines away. A name that is no
// analyzer at all is a finding of its own: it suppresses nothing.

func ignoredTrailing(c *pcu.Ctx) {
	if c.Rank() == 0 { //pumi-vet:ignore collseq
		c.Barrier()
	}
}

func ignoredLineAbove(c *pcu.Ctx) {
	//pumi-vet:ignore collseq
	if c.Rank() == 0 {
		_ = pcu.SumInt64(c, 1)
	}
}

func ignoredAll(c *pcu.Ctx) {
	if c.Rank() == 0 { //pumi-vet:ignore all
		c.Barrier()
	}
}

func ignoredAmongSeveral(c *pcu.Ctx) {
	if c.Rank() == 0 { //pumi-vet:ignore rankdiv, collseq // every name valid
		c.Barrier()
	}
}

func wrongAnalyzerStillFires(c *pcu.Ctx) {
	if c.Rank() == 0 { //pumi-vet:ignore ctxescape // want `must still run Barrier`
		c.Barrier()
	}
}

func tooFarAwayStillFires(c *pcu.Ctx) {
	//pumi-vet:ignore collseq
	_ = c.Size()
	if c.Rank() == 0 { // want `must still run Barrier`
		c.Barrier()
	}
}

func unknownNameIsAFinding(c *pcu.Ctx) {
	//pumi-vet:ignore colseq // want `unknown analyzer "colseq" in //pumi-vet:ignore directive`
	if c.Rank() == 0 { // want `must still run Barrier`
		c.Barrier()
	}
}
