package pcu

// The instrumentation seam: one way to time a stage,
//
//	defer ctx.Span("partition.migrate").End()
//
// and one way to count an event, ctx.Count. A span reaches both observers
// at once — a Begin/End pair in the rank's flight recorder when the run
// is traced, and one observation in the registry histogram "<name>.ns".
// Every world has a registry to record into: the supplied one, else a
// world-private one that the watchdog's stall report reads. Series are
// created on first use; after that a record resolves its handle in a map
// only this rank touches (never the registry mutex) and allocates nothing.

// Span is one open stage interval; close it with End.
type Span struct {
	c     *Ctx
	name  string
	start int64 // world-monotonic ns
}

// Span opens the named stage on this rank.
func (c *Ctx) Span(name string) Span {
	c.tr.Begin(name)
	return Span{c: c, name: name, start: c.w.since()}
}

// End closes the stage, recording its duration under "<name>.ns".
func (s Span) End() {
	c := s.c
	d := c.w.since() - s.start
	c.tr.End(s.name)
	h := c.spans[s.name]
	if h == nil {
		h = c.w.reg.Histogram(s.name + ".ns")
		c.spans[s.name] = h
	}
	h.Observe(c.rank, d)
}

// Count adds n to the named event counter.
func (c *Ctx) Count(name string, n int64) {
	ctr := c.counts[name]
	if ctr == nil {
		ctr = c.w.reg.Counter(name)
		c.counts[name] = ctr
	}
	ctr.Add(c.rank, n)
}
