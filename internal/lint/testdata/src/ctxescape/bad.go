package ctxescape

import "github.com/fastmath/pumi-go/internal/pcu"

var leaked *pcu.Ctx

func worker(c *pcu.Ctx) { _ = c.Rank() }

func badCapture(c *pcu.Ctx) {
	go func() {
		c.Barrier() // want `captured by goroutine`
	}()
}

func badArg(c *pcu.Ctx) {
	go worker(c) // want `passed to a goroutine`
}

func badGlobal(c *pcu.Ctx) {
	leaked = c // want `package-level state`
}

func badChannel(c *pcu.Ctx, ch chan *pcu.Ctx) {
	ch <- c // want `sent on a channel`
}

// Interprocedural leaks: a helper that hands its Ctx parameter to
// another goroutine leaks every Ctx passed to it, however many calls
// deep the spawn hides.
func spawnHelper(c *pcu.Ctx, ch chan int) {
	go worker(c) // want `passed to a goroutine`
	ch <- 1
}

func forward(c *pcu.Ctx, ch chan int) {
	spawnHelper(c, ch) // want `passed to spawnHelper, which passes it to a goroutine`
}

func badLeakViaHelper(c *pcu.Ctx, ch chan int) {
	forward(c, ch) // want `passed to forward, which passes it to spawnHelper, which passes it to a goroutine`
}

// Interprocedural captures: a function-typed parameter the callee runs
// on another goroutine makes a Ctx-capturing literal argument a leak.
func runLater(f func()) { go f() }

func runIndirect(f func()) { runLater(f) }

func badCtxCapturePassed(c *pcu.Ctx) {
	runLater(func() {
		c.Barrier() // want `captured by a function literal passed to runLater, which starts it on a goroutine`
	})
}

func badCtxCaptureDeep(c *pcu.Ctx) {
	runIndirect(func() {
		_ = c.Rank() // want `captured by a function literal passed to runIndirect, which passes it to runLater, which starts it on a goroutine`
	})
}

// The same leaks one call away: the helper's own escape is a finding,
// and so is every Ctx handed to it.
func sendHelper(c *pcu.Ctx, ch chan *pcu.Ctx) {
	ch <- c // want `sent on a channel`
}

func badLeakViaSend(c *pcu.Ctx, ch chan *pcu.Ctx) {
	sendHelper(c, ch) // want `passed to sendHelper, which sends it on a channel`
}

func storeHelper(c *pcu.Ctx) {
	leaked = c // want `package-level state`
}

func badLeakViaStore(c *pcu.Ctx) {
	storeHelper(c) // want `passed to storeHelper, which stores it in package-level state`
}

func captureHelper(c *pcu.Ctx) {
	go func() {
		_ = c.Rank() // want `captured by goroutine literal`
	}()
}

func badLeakViaCapture(c *pcu.Ctx) {
	captureHelper(c) // want `passed to captureHelper, which captures it in a goroutine literal`
}

// A function parameter called from inside a goroutine literal runs on
// that goroutine as surely as `go f()`.
func runInLiteral(f func()) {
	go func() { f() }()
}

func badCtxCaptureInLiteral(c *pcu.Ctx) {
	runInLiteral(func() {
		c.Barrier() // want `captured by a function literal passed to runInLiteral, which runs it from a goroutine literal`
	})
}
