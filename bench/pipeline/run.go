package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/fastmath/pumi-go/internal/cmdutil"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Trace modes: which passes a run makes and so which metrics it yields.
const (
	TraceOff  = 0  // untraced pass only: the end-to-end metrics
	TraceOn   = 1  // a short untraced pass, then the traced pass: the per-layer metrics
	TraceBoth = -1 // a full untraced pass and the traced pass: every metric
)

// Config selects and sizes one workload run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is how long the timed cycles of the run go on; a cycle
	// that has started always finishes.
	Seconds float64
	// Quick shrinks the inputs to smoke-test size.
	Quick  bool
	Trace  int
	OutDir string
}

// ErrTooFewCPUs is returned when the machine cannot give each rank a
// core: the wall-clock would measure the scheduler, not the library.
var ErrTooFewCPUs = errors.New("pipeline: fewer than 2 CPUs available, refusing to report oversubscribed wall-clock")

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Summary and Samples are kept for timings measured more than once.
	Summary *Summary  `json:"summary,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// WorkloadResult is everything one run of one workload reports.
type WorkloadResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Cycles    int      `json:"cycles"`
	Ops       int      `json:"ops"`
	OpsFailed int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	// Wall holds the raw wall-clock behind the two normalised timings
	// and the machine factor that relates them.
	Wall     map[string]Value `json:"wall,omitempty"`
	EndToEnd map[string]Value `json:"end_to_end,omitempty"`
	PerLayer map[string]Value `json:"per_layer,omitempty"`
}

// Correct reports whether every operation and check of the run passed.
func (r *WorkloadResult) Correct() bool { return r.OpsFailed == 0 && r.Ops > 0 }

// passPlan sizes one pass.
type passPlan struct {
	traced    bool
	seconds   float64
	setups    int // set-ups made (and timed) before the first cycle
	minCycles int
}

// Run executes one workload and assembles its metrics.
func Run(cfg Config) (*WorkloadResult, error) {
	if runtime.NumCPU() < ranks {
		return nil, ErrTooFewCPUs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(ranks))
	sz := fullSizes
	if cfg.Quick {
		sz = quickSizes
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	// Several set-ups per run make setup_s a median; only the vessel is
	// slow enough to need rationing.
	var plans []passPlan
	switch {
	case cfg.Quick:
		plans = []passPlan{{false, 0, 1, 1}, {true, 0, 1, 1}}
	case cfg.Trace == TraceOff:
		plans = []passPlan{{false, cfg.Seconds, 3, 3}}
	case cfg.Trace == TraceOn:
		plans = []passPlan{{false, cfg.Seconds * 0.3, 1, 2}, {true, cfg.Seconds * 0.7, 1, 3}}
	default:
		plans = []passPlan{{false, cfg.Seconds, 3, 3}, {true, cfg.Seconds * 0.7, 1, 3}}
	}
	if cfg.Quick && cfg.Trace == TraceOff {
		plans = plans[:1]
	}

	res := &WorkloadResult{Workload: cfg.Workload, Seed: cfg.Seed}
	var untraced, traced *passData
	var flight flightStats
	for _, pp := range plans {
		pd, fs, err := runPass(cfg, sz, pp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
		}
		res.Ops += pd.ops
		res.OpsFailed += pd.failed
		res.Failures = append(res.Failures, pd.failures...)
		if pp.traced {
			traced, flight = pd, fs
		} else {
			untraced = pd
		}
	}
	if untraced != nil && traced != nil {
		for _, msg := range determinism(untraced, traced) {
			res.Ops++
			if msg != "" {
				res.OpsFailed++
				res.Failures = append(res.Failures, msg)
			}
		}
	}
	res.Cycles = len(untraced.cycles)
	if cfg.Trace != TraceOn {
		res.EndToEnd, res.Wall = endToEnd(untraced, traced)
	}
	if traced != nil {
		res.PerLayer = perLayer(untraced, traced, flight, sz)
	}
	return res, nil
}

// flightStats is what the program's own flight recorder reports about
// the traced pass, read back from the summary file it writes.
type flightStats struct {
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// runPass runs set-up, a warm-up cycle and the timed cycles of one pass
// in a fresh pcu world. The traced pass arms the program's flight
// recorder through the same seam every command uses, a file path.
func runPass(cfg Config, sz sizes, pp passPlan) (*passData, flightStats, error) {
	var flight flightStats
	pd := &passData{notes: map[string][]float64{}, setupSum: map[string]counters{}}
	in := makeInputs(cfg.Seed)
	layout, err := newWorkload(cfg.Workload, sz, in, cfg.OutDir)
	if err != nil {
		return nil, flight, err
	}
	flightPath := filepath.Join(cfg.OutDir, cfg.Workload+".flight.json")
	stopTrace := func() {}
	if pp.traced {
		stopTrace = cmdutil.StartTrace(flightPath)
		// Allocated before the heap baseline, so the recorders are not
		// taken for mesh.
		epoch := time.Now()
		for r := 0; r < ranks; r++ {
			pd.recs = append(pd.recs, NewRecorder(r, epoch, 1<<14))
		}
	}
	scratch := []*refScratch{newRefScratch(), newRefScratch()}

	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)

	g := &gate{}
	opt := pcu.Options{Topo: layout.topo(), StallTimeout: 10 * time.Minute}
	_, err = pcu.RunOpt(ranks, opt, func(ctx *pcu.Ctx) error {
		// Each rank drives its own copy of the workload state.
		w, werr := newWorkload(cfg.Workload, sz, in, cfg.OutDir)
		if werr != nil {
			return werr
		}
		h := &harness{ctx: ctx, cfg: cfg, pass: pd, gate: g, scratch: scratch[ctx.Rank()], traced: pp.traced, cycle: -1, cycleSpan: -1}
		if pp.traced {
			h.rec = pd.recs[ctx.Rank()]
		}
		calibrate(h)
		// On this kind of box a process that has just started, or has
		// sat idle, gets both cores at full speed only after about a
		// second; the first reference reading must not fall into that.
		warmUp := 1500 * time.Millisecond
		if cfg.Quick {
			warmUp /= 30 // the smoke test asserts presence, not speed
		}
		for start := time.Now(); time.Since(start) < warmUp; {
			h.refSink += h.scratch.run()
		}
		setup := func() error {
			h.cycle, h.cycleSpan = -1, -1
			before := h.reference()
			h.barrier()
			start := time.Now()
			if err := w.setup(h); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			h.barrier()
			elapsed := time.Since(start).Seconds()
			after := h.reference()
			if h.rank0() {
				pd.setupS = append(pd.setupS, elapsed)
				pd.setupRef = append(pd.setupRef, (before+after)/2)
			}
			return nil
		}
		if !w.freshPerCycle() {
			for i := 0; i < pp.setups; i++ {
				if err := setup(); err != nil {
					return err
				}
			}
		}
		var measuring time.Time
		for n := 0; ; n++ {
			if w.freshPerCycle() {
				if err := setup(); err != nil {
					return err
				}
			}
			h.beginCycle(n)
			w.cycle(h)
			h.pause()
			elements, imbalance := w.state()
			h.endCycle(elements, imbalance)
			stop := false
			if h.rank0() {
				if n == 0 {
					measuring = time.Now()
				}
				stop = n >= pp.minCycles && time.Since(measuring).Seconds() >= pp.seconds
			}
			if pcu.Bcast(ctx, 0, stop) {
				break
			}
		}
		// The mesh database's footprint: what stays reachable once the
		// last cycle's garbage is gone.
		dm := w.mesh()
		var entities int64
		for d := 0; dm != nil && d <= 3; d++ {
			entities += partition.GlobalCount(dm, d)
		}
		h.barrier()
		if h.rank0() {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			pd.live = ms.HeapAlloc - min(ms.HeapAlloc, base.HeapAlloc)
			pd.entities = entities
		}
		h.barrier()
		runtime.KeepAlive(dm)
		return nil
	})
	stopTrace()
	// Without this the collector may free a rank's scratch, which the
	// heap baseline includes, before the footprint is read.
	runtime.KeepAlive(scratch)
	if err != nil {
		return nil, flight, err
	}
	if pp.traced {
		spansPath := filepath.Join(cfg.OutDir, cfg.Workload+".spans.json")
		if err := writeSpans(spansPath, pd.recs); err != nil {
			return nil, flight, err
		}
		raw, err := os.ReadFile(cmdutil.TraceSummaryPath(flightPath))
		if err != nil {
			return nil, flight, fmt.Errorf("flight recorder summary: %w", err)
		}
		if err := json.Unmarshal(raw, &flight); err != nil {
			return nil, flight, fmt.Errorf("flight recorder summary: %w", err)
		}
	}
	return pd, flight, nil
}

func writeSpans(path string, recs []*Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChrome(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// calibrate measures the synchronization floor of the workload's
// topology at run start: an empty barrier and an empty exchange with
// the neighbour rank.
func calibrate(h *harness) {
	const rounds = 2000
	ctx := h.ctx
	peer := (ctx.Rank() + 1) % ctx.Size()
	time1 := func(fn func()) float64 {
		for i := 0; i < rounds/10; i++ {
			fn()
		}
		ctx.Barrier()
		start := time.Now()
		for i := 0; i < rounds; i++ {
			fn()
		}
		return float64(time.Since(start)) / float64(time.Microsecond) / rounds
	}
	h.note("pcu.barrier_us", time1(ctx.Barrier))
	h.note("pcu.exchange_rt_us", time1(func() {
		ctx.To(peer)
		for _, m := range ctx.Exchange() {
			m.Data.Done()
		}
	}))
}

// determinism compares the counts two passes of the same seed made,
// cycle by cycle: messages, bytes, collectives and the noted counts
// must be identical. Each comparison is one operation; a non-empty
// string is a failure.
func determinism(a, b *passData) []string {
	var out []string
	n := min(len(a.cycles), len(b.cycles))
	var ta, tb []traffic
	for i := 0; i < n; i++ {
		ta = append(ta, a.cycles[i].delta.traffic)
		tb = append(tb, b.cycles[i].delta.traffic)
	}
	if slices.Equal(ta, tb) {
		out = append(out, "")
	} else {
		out = append(out, fmt.Sprintf("determinism: pcu traffic per cycle differs between passes: %v vs %v", ta, tb))
	}
	for _, name := range []string{"parma.iters", "adapt.splits", "partition.migrate_elements_moved", "partition.ghost_elements"} {
		x, y := a.notes[name], b.notes[name]
		m := min(len(x), len(y))
		if slices.Equal(x[:m], y[:m]) {
			out = append(out, "")
		} else {
			out = append(out, fmt.Sprintf("determinism: %s differs between passes: %v vs %v", name, x, y))
		}
	}
	return out
}

// goodCycles returns the samples of the cycles no failed operation voided.
func goodCycles(pd *passData) []cycleSample {
	var out []cycleSample
	for _, c := range pd.cycles {
		if !c.failed {
			out = append(out, c)
		}
	}
	return out
}

// cycleSeconds returns the cycles' timed wall-clock in reference
// seconds (see reference.go).
func cycleSeconds(cs []cycleSample) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = referenceSeconds(c.seconds, c.ref)
	}
	return out
}

// passReference is the median of every reading of the reference kernel
// a pass took: the machine's speed over the whole pass.
func passReference(pd *passData) float64 {
	refs := append([]float64(nil), pd.setupRef...)
	for _, c := range pd.cycles {
		refs = append(refs, c.ref)
	}
	return Median(refs)
}

// timing reports the median of samples with their noise record.
func timing(samples []float64) Value {
	s := Summarize(samples)
	return Value{Value: s.Median, Unit: "s", Summary: &s, Samples: samples}
}

// endToEnd computes the six end-to-end metrics from the untraced pass,
// and the raw wall-clock behind the two timings. Set-up samples of the
// traced pass count too: set-up is the same there.
func endToEnd(u, t *passData) (metrics, wall map[string]Value) {
	cs := goodCycles(u)
	var mallocs, bytes, elemCycles float64
	var cycleWall []float64
	imb := 0.0
	for _, c := range cs {
		mallocs += float64(c.delta.mallocs)
		bytes += float64(c.delta.allocBytes)
		elemCycles += float64(c.elements)
		imb = max(imb, c.imbalance)
		cycleWall = append(cycleWall, c.seconds)
	}
	elements := 0.0
	if len(u.cycles) > 0 {
		elements = float64(u.cycles[len(u.cycles)-1].elements)
	}
	// A set-up lasts seconds, longer than the phases the machine goes
	// through, so the two readings around it say little about it: it is
	// converted by the median of all its pass's readings instead.
	var setupWall, setups []float64
	for _, pd := range []*passData{u, t} {
		if pd == nil {
			continue
		}
		kernel := passReference(pd)
		for _, wall := range pd.setupS {
			setupWall = append(setupWall, wall)
			setups = append(setups, referenceSeconds(wall, kernel))
		}
	}
	metrics = map[string]Value{
		"setup_s":                 timing(setups),
		"pipeline_s":              timing(cycleSeconds(cs)),
		"allocs_per_element":      {Value: ratio(mallocs, elemCycles)},
		"alloc_bytes_per_element": {Value: ratio(bytes, elemCycles)},
		"live_bytes_per_element":  {Value: ratio(float64(u.live), elements)},
		"imbalance_max":           {Value: imb},
	}
	for _, d := range EndToEnd {
		v := metrics[d.Name]
		v.Unit = d.Unit
		metrics[d.Name] = v
	}
	wall = map[string]Value{
		"setup_wall_s":    timing(setupWall),
		"pipeline_wall_s": timing(cycleWall),
		"machine_factor":  {Value: passReference(u) / referenceNominal, Unit: "ratio"},
	}
	return metrics, wall
}

// stageSum adds up the counter deltas of one stage's executions.
type stageSum struct {
	n       int
	mallocs uint64
	traffic traffic
}

// stageSamples returns rank 0's self time of every stage execution in
// the traced pass's timed cycles (seconds, by span name), the counter
// deltas summed by name, and the total self time of the timed stages.
func stageSamples(t *passData) (map[string][]float64, map[string]stageSum, float64) {
	spans := t.recs[0].Spans()
	self := SelfTimes(spans)
	samples := map[string][]float64{}
	sums := map[string]stageSum{}
	var timedSelf float64
	for i, s := range spans {
		if s.Cycle <= 0 || s.End < 0 || s.Name == "cycle" || t.cycles[s.Cycle-1].failed {
			continue
		}
		samples[s.Name] = append(samples[s.Name], self[i].Seconds())
		c := sums[s.Name]
		c.n++
		c.mallocs += s.Mallocs
		c.traffic = c.traffic.add(s.Traffic)
		sums[s.Name] = c
		if !s.Untimed {
			timedSelf += self[i].Seconds()
		}
	}
	return samples, sums, timedSelf
}

// perLayer computes the per-layer metrics, mostly from the traced pass:
// stage timings are medians of its spans' self times, counts come from
// return values the workloads noted and from pcu.Stats deltas.
func perLayer(u, t *passData, flight flightStats, sz sizes) map[string]Value {
	vals := map[string]Value{}
	set := func(name string, v float64) { vals[name] = Value{Value: v} }
	stages, sums, timedSelf := stageSamples(t)
	cs := goodCycles(t)
	ncycles := float64(len(cs))
	note := func(name string) float64 { return Median(t.notes[name]) }

	// Noted values: counts, ratios and calibrations carry their metric's
	// name; set-up stage timings are noted as <stage>_s.
	for name, samples := range t.notes {
		if _, ok := FindMetric(name); !ok {
			continue
		}
		vals[name] = timing(samples)
		if Exact(name) {
			// A count, read on the first timed cycle: it must not
			// depend on how many cycles the run fitted in.
			vals[name] = Value{Value: samples[0]}
		}
	}
	// Stage timings: the span's name is the metric's, less the unit.
	for name, samples := range stages {
		if _, ok := FindMetric(name + "_s"); ok {
			vals[name+"_s"] = timing(samples)
		}
	}
	stage := func(name string) float64 { return Median(stages[name]) }
	setupElems := note("setup.elements")
	setupStages := float64(len(t.notes["meshgen.generate_s"]))

	set("meshgen.us_per_tet", ratio(note("meshgen.generate_s")*1e6, setupElems))
	set("meshgen.allocs_per_tet", ratio(float64(t.setupSum["meshgen.generate"].mallocs), setupElems*setupStages))
	set("partition.scatter_us_per_element", ratio(note("partition.scatter_s")*1e6, setupElems))

	elements := 0.0
	if len(cs) > 0 {
		elements = float64(cs[len(cs)-1].elements)
	}
	// mesh.verify runs in set-up everywhere and in most cycles; the
	// cycle's spans win where they exist, as they see the mesh the
	// workload produced.
	verifyS, verifyElems := note("mesh.verify_s"), setupElems
	verifyAllocs := ratio(float64(t.setupSum["mesh.verify"].mallocs), setupStages)
	if sum := sums["mesh.verify"]; sum.n > 0 {
		verifyS, verifyElems = stage("mesh.verify"), elements
		verifyAllocs = float64(sum.mallocs) / float64(sum.n)
	}
	set("mesh.verify_us_per_element", ratio(verifyS*1e6, verifyElems))
	set("mesh.verify_allocs_per_element", ratio(verifyAllocs, verifyElems))

	moved := note("partition.migrate_elements_moved")
	migrateS := stage("partition.migrate_ab") + stage("partition.migrate_ba")
	migrateAllocs := float64(sums["partition.migrate_ab"].mallocs + sums["partition.migrate_ba"].mallocs)
	set("partition.migrate_us_per_moved", ratio(migrateS*1e6, moved))
	set("partition.migrate_allocs_per_moved", ratio(migrateAllocs, moved*ncycles))

	steps := float64(sz.steps)
	set("partition.replan_us", stage("partition.replan")*1e6)
	set("partition.step_us", ratio(stage("partition.steps")*1e6, steps))
	set("partition.step_allocs", ratio(float64(sums["partition.steps"].mallocs), steps*ncycles))
	set("pcu.offnode_bytes_per_step", ratio(float64(sums["partition.steps"].traffic.OffNodeBytes), steps*ncycles))

	// The footprint is read in the untraced pass, where no recorder
	// shares the heap: the same figure as live_bytes_per_element.
	set("mesh.bytes_per_element", ratio(float64(u.live), elements))
	set("mesh.bytes_per_entity", ratio(float64(u.live), float64(u.entities)))

	// Traffic is the first timed cycle's, like every exact count.
	var tr traffic
	var gcCycles, gcPauseNs float64
	for i, c := range cs {
		if i == 0 {
			tr = c.delta.traffic
		}
		gcCycles += float64(c.delta.gcCycles)
		gcPauseNs += float64(c.delta.gcPauseNs)
	}
	tracedPipeline := Median(cycleSeconds(cs))
	set("pcu.msgs_per_cycle", float64(tr.Msgs))
	set("pcu.onnode_bytes_per_cycle", float64(tr.OnNodeBytes))
	set("pcu.offnode_bytes_per_cycle", float64(tr.OffNodeBytes))
	set("pcu.collectives_per_cycle", float64(tr.Collectives))
	set("pcu.retries", float64(tr.Retries))
	// Computed, not measured: each rank's collectives at the cost of an
	// empty barrier, as a share of the cycle.
	var wall []float64
	for _, c := range cs {
		wall = append(wall, c.seconds)
	}
	set("pcu.sync_floor_share", ratio(float64(tr.Collectives)/ranks*note("pcu.barrier_us")*1e-6, Median(wall)))

	balance := 0.0
	for i := range parmaTests {
		balance += stage(fmt.Sprintf("parma.balance_t%d", i+1))
	}
	set("parma.ms_per_iter", ratio(balance*1e3, note("parma.iters")))
	set("adapt.us_per_split", ratio(stage("adapt.parallel")*1e6, note("adapt.splits")))
	mb := note("meshio.checkpoint_bytes") / 1e6
	set("meshio.save_mb_per_s", ratio(mb, stage("meshio.save")))
	set("meshio.load_mb_per_s", ratio(mb, stage("meshio.load")))

	set("runtime.gc_cycles", ratio(gcCycles, ncycles))
	set("runtime.gc_pause_ms", ratio(gcPauseNs*1e-6, ncycles))
	set("runtime.peak_heap_mb", float64(max(t.peakHeap, u.peakHeap))/1e6)
	set("runtime.machine_factor", passReference(t)/referenceNominal)

	set("trace.overhead_ratio", ratio(tracedPipeline, Median(cycleSeconds(goodCycles(u)))))
	var timed float64
	for _, c := range cs {
		timed += c.seconds
	}
	set("trace.stage_cover_ratio", ratio(timedSelf, timed))
	events, dropped := 0, 0
	for _, r := range t.recs {
		events += len(r.Spans())
		dropped += r.Dropped()
	}
	set("trace.events", float64(events))
	set("trace.dropped", float64(dropped))
	set("trace.flight_events", float64(flight.Events))
	set("trace.flight_dropped", float64(flight.Dropped))

	out := map[string]Value{}
	for _, d := range PerLayer {
		v := vals[d.Name]
		v.Unit = d.Unit
		if v.Summary != nil && v.Summary.N < 2 {
			v.Summary, v.Samples = nil, nil
		}
		out[d.Name] = v
	}
	return out
}
