package phaseorder

func okSinglePhase() {
	ph := beginPhase()
	ph.to(0).Int32(1)
	ph.to(1).Int32(2)
	_ = ph.exchange()
}

func okTwoPhases() {
	// Reusing the variable for a second round is fine once the first
	// exchanged.
	ph := beginPhase()
	ph.to(0).Int32(1)
	_ = ph.exchange()
	ph = beginPhase()
	ph.to(1).Int32(2)
	_ = ph.exchange()
}

func okTwoRoundsOnePhase() {
	// One phase serves every round of a call: exchange delivers what was
	// packed and the next round packs into the same phase.
	ph := beginPhase()
	ph.to(0).Int32(1)
	_ = ph.exchange()
	ph.to(1).Int32(2)
	_ = ph.exchange()
}

func okPackInLiteral() {
	ph := beginPhase()
	func() {
		ph.to(0).Int32(1)
	}()
	_ = ph.exchange()
}

func runPhase(ph *phase) { _ = ph.exchange() }

func okEscaped() {
	// The phase escapes to a helper, which may run the exchange; the
	// lexical missed-exchange check stands down.
	ph := beginPhase()
	ph.to(0).Int32(1)
	runPhase(ph)
}

func okEmptyPhase() {
	// A phase with no sends packed still exchanges (the exchange is
	// collective), but packing nothing is not a finding by itself.
	ph := beginPhase()
	_ = ph.exchange()
}
