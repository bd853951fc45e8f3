package trace

import "sync"

// Collector accumulates the traces of sequential runs in one process —
// the way pumi-bench and pumi-part repeat pcu.RunOpt — so they export as
// one timeline: WriteChrome(w, col.Traces()...). All recorders share the
// process trace epoch, so the runs land side by side in chronological
// order; rank r of every run maps to track r.
//
// A Collector is installed process-wide via pcu.SetDefaultTrace: every
// subsequent run without an explicit Options.Trace records into a fresh
// Trace and adds it here when the run ends (normally or not). The zero
// Collector is ready to use.
type Collector struct {
	mu     sync.Mutex
	traces []*Trace
}

// Add appends one finished (or failed) run's trace.
func (c *Collector) Add(t *Trace) {
	if c == nil || t == nil {
		return
	}
	c.mu.Lock()
	c.traces = append(c.traces, t)
	c.mu.Unlock()
}

// Traces returns the collected runs in collection order.
func (c *Collector) Traces() []*Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Trace(nil), c.traces...)
}
