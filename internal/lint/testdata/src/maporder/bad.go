package maporder

import "github.com/fastmath/pumi-go/internal/pcu"

// Map range order is randomized per run; anything it feeds into
// communication — phase buffers, packs, exchanges, collectives,
// directly or through helpers — diverges between runs and ranks.

func badDirectTo(c *pcu.Ctx, parts map[int]int) {
	for q, v := range parts { // want `map iteration order reaches communication \(opens a phase send buffer\)`
		b := c.To(q)
		b.Int32(int32(v))
	}
}

func badPackOnly(c *pcu.Ctx, vals map[int]int32) {
	b := c.To(1)
	for _, v := range vals { // want `map iteration order reaches communication \(packs a communication buffer\)`
		b.Int32(v)
	}
	for _, m := range c.Exchange() {
		for !m.Data.Empty() {
			_ = m.Data.Int32()
		}
	}
}

func badCollectiveInRange(c *pcu.Ctx, parts map[int]int) {
	for range parts { // want `map iteration order reaches communication \(calls collective Barrier\)`
		c.Barrier()
	}
}

func sendOne(c *pcu.Ctx, q int, v int32) {
	c.To(q).Int32(v)
}

func badViaHelper(c *pcu.Ctx, parts map[int]int32) {
	for q, v := range parts { // want `map iteration order reaches communication \(calls sendOne, which packs a communication buffer\)`
		sendOne(c, q, v)
	}
}

func badInClosure(c *pcu.Ctx, parts map[int]int32) {
	for q, v := range parts { // want `map iteration order reaches communication`
		func() { sendOne(c, q, v) }()
	}
}

func syncOnce(c *pcu.Ctx) { c.Barrier() }

func syncTwice(c *pcu.Ctx) { syncOnce(c) }

func badCollectiveViaHelpers(c *pcu.Ctx, parts map[int]int) {
	for range parts { // want `map iteration order reaches communication \(reaches collective via syncTwice -> syncOnce -> Ctx.Barrier\)`
		syncTwice(c)
	}
}

func openTo(c *pcu.Ctx, q int, v int32) {
	b := c.To(q)
	b.Int32(v)
}

func badToViaHelper(c *pcu.Ctx, parts map[int]int32) {
	for q, v := range parts { // want `map iteration order reaches communication \(calls openTo, which opens a phase send buffer\)`
		openTo(c, q, v)
	}
}
