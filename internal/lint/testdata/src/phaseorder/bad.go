package phaseorder

// The fixture mirrors the partition package's phased-exchange protocol
// shape: beginPhase gives a phase object, to() opens per-destination
// send buffers, exchange() delivers them and readies the phase for the
// next round.

type buf struct{ n int }

func (b *buf) Int32(v int32) { b.n++ }

type phase struct{ bufs []*buf }

func beginPhase() *phase { return &phase{} }

func (p *phase) to(q int) *buf {
	b := &buf{}
	p.bufs = append(p.bufs, b)
	return b
}

func (p *phase) exchange() []int { return make([]int, len(p.bufs)) }

func badPackAfterLastExchange() {
	ph := beginPhase() // want `packed sends but never ran exchange`
	ph.to(0).Int32(1)
	_ = ph.exchange()
	ph.to(1).Int32(2)
}

func badNeverExchanged() {
	ph := beginPhase() // want `packed sends but never ran exchange`
	ph.to(0).Int32(1)
}

func badRestartPending() {
	ph := beginPhase()
	ph.to(0).Int32(1)
	ph = beginPhase() // want `packed sends but never ran exchange`
	ph.to(1).Int32(2)
	_ = ph.exchange()
}
