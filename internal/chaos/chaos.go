// Package chaos drives the ParMA balancing stack under seeded fault
// injection and checks the recovery story end to end. The faulted world
// runs under pcu.Supervise: transient wire damage is retried in place,
// and a rank death revokes the world, which shrinks over the survivors
// and resumes from the last committed checkpoint. Any other failure
// must be structured and diagnosable — and when a checkpoint was
// committed before it, a fresh fault-free world restores it and
// finishes balancing with the partition verifier green. The fault plan
// derives deterministically from the seed, so any failure reproduces by
// rerunning the same seed.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/san"
	"github.com/fastmath/pumi-go/internal/trace"
)

// timelineTail is how many flight-recorder events per rank a failed
// world's Outcome.Timeline carries.
const timelineTail = 8

// Config parameterizes one soak run.
type Config struct {
	// Seed generates the fault plan; the same seed always yields the
	// same plan and, for non-timing faults, the same failure.
	Seed int64
	// Plan, when non-nil, replaces the seed-derived random plan with an
	// explicit fault schedule (the fault-matrix tests aim one kind at a
	// known operation).
	Plan *pcu.FaultPlan
	// Ranks is the world size, split across two nodes so the wire
	// faults have framed off-node traffic to hit. Must be even.
	// Default 4.
	Ranks int
	// NX, NY, NZ size the generated box mesh (elements = 6*NX*NY*NZ).
	// Default 6x3x3.
	NX, NY, NZ int
	// Tolerance and MaxIters configure the balancer. Defaults 1.05, 40.
	Tolerance float64
	MaxIters  int
	// MaxOp bounds the collective/exchange window faults are drawn
	// from. Early ops land in setup migration, later ones inside
	// balancing iterations. Default 120.
	MaxOp int64
	// Dir is the checkpoint directory (required). A checkpoint is
	// written after every completed balancing iteration.
	Dir string
	// StallTimeout arms the collective watchdog. Default 30s.
	StallTimeout time.Duration
	// Sanitize runs every world under pumi-san: mesh writes go through
	// the ownership guard and the runs fold their op sequence into the
	// trace hash.
	Sanitize bool
	// Trace records the faulted world with the flight recorder; when it
	// fails or is revoked, Outcome.Timeline carries each rank's event
	// tail so a failure report shows what led up to it, not just the
	// final error.
	Trace bool
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Outcome reports what one soak observed. Every field but FinalImb's
// last digits is a deterministic function of the plan and workload.
type Outcome struct {
	Plan string // fault plan description, "seed N: ..."
	// Kind classifies how the supervised run ended:
	//   "clean"             no fault disturbed the run (or only a delay)
	//   "retried-transient" wire damage repaired in-world by the
	//                       retransmit layer; the run completed
	//   "recovered-shrink"  rank death revoked the world; survivors
	//                       rebuilt a smaller one and finished
	// or a failure kind ("injected-panic", "stall", "migrate-abort",
	// "corrupt", "peer", ...), after which the fault-free restart runs
	// when a checkpoint was committed.
	Kind   string
	RunErr string // the supervised run's error, when it failed
	// Sizes is the world size of each supervised attempt; Failed lists
	// the ranks that had vanished when the first world was revoked (nil
	// when none was).
	Sizes  []int
	Failed []int
	// Retries/Replays are the supervised run's final attempt's
	// transient-fault counters.
	Retries, Replays int64
	// Restored reports that a world restored the committed checkpoint
	// and resumed from its cursor: a shrunk world, or the fault-free
	// restart after a failure.
	Restored bool
	// Verified reports that the surviving mesh passed the distributed
	// verifier; FinalImb is its peak element imbalance.
	Verified bool
	FinalImb float64
	// Timeline holds each rank's flight-recorder tail from the faulted
	// world (one rendered line per rank) when Config.Trace was on and
	// that world failed or was revoked.
	Timeline []string
}

func (o Outcome) String() string {
	switch {
	case o.Kind == "retried-transient":
		return fmt.Sprintf("%s -> retried-transient (%d retransmits, %d replays dropped, imb %.3f)",
			o.Plan, o.Retries, o.Replays, o.FinalImb)
	case o.Kind == "recovered-shrink":
		return fmt.Sprintf("%s -> recovered-shrink (failed %v, worlds %v, imb %.3f)",
			o.Plan, o.Failed, o.Sizes, o.FinalImb)
	case o.Kind == "clean":
		return fmt.Sprintf("%s -> clean (imb %.3f)", o.Plan, o.FinalImb)
	case o.Restored:
		return fmt.Sprintf("%s -> %s, restored from checkpoint (imb %.3f)", o.Plan, o.Kind, o.FinalImb)
	default:
		return fmt.Sprintf("%s -> %s, no checkpoint to restore", o.Plan, o.Kind)
	}
}

func (c *Config) fillDefaults() {
	if c.Ranks == 0 {
		c.Ranks = 4
	}
	if c.NX == 0 {
		c.NX, c.NY, c.NZ = 6, 3, 3
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1.05
	}
	if c.MaxIters == 0 {
		c.MaxIters = 40
	}
	if c.MaxOp == 0 {
		c.MaxOp = 120
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 30 * time.Second
	}
}

// Soak runs one faulted balancing world under pcu.Supervise and, when
// it ends in a classified failure with a checkpoint committed, one
// fault-free world of the same size that restores the checkpoint and
// finishes. It returns a non-nil error only for harness failures: an
// unclassifiable error kind, a mesh that fails Verify after a
// supposedly clean abort, or a restart that cannot complete. Structured
// injected failures are part of a successful soak and are reported in
// the Outcome.
func Soak(cfg Config) (Outcome, error) {
	cfg.fillDefaults()
	if cfg.Dir == "" {
		return Outcome{}, fmt.Errorf("chaos: Config.Dir is required")
	}
	if cfg.Ranks%2 != 0 {
		return Outcome{}, fmt.Errorf("chaos: Ranks must be even, got %d", cfg.Ranks)
	}
	plan := cfg.Plan
	if plan == nil {
		plan = pcu.RandomFaultPlan(cfg.Seed, cfg.Ranks, cfg.MaxOp)
	}
	out := Outcome{Plan: plan.String()}
	logf(cfg, "chaos: %s\n", plan)
	if cfg.Sanitize {
		san.Enable()
		defer san.Disable()
	}
	var tr *trace.Trace
	if cfg.Trace {
		tr = trace.New(cfg.Ranks)
	}
	opt := pcu.Options{
		Topo:         hwtopo.Cluster(2, cfg.Ranks/2),
		Faults:       plan,
		StallTimeout: cfg.StallTimeout,
		Trace:        tr,
	}
	// Rank 0 of the world that finishes records the final imbalance.
	var finalImb float64

	// The part count is fixed by the first world; a rebuilt world must
	// divide it, so it uses the largest divisor the survivors can host.
	nextSize := func(survivors int) int {
		if out.Timeline == nil {
			// Snapshot the faulted world before a rebuilt one records.
			out.Timeline = tr.TailStrings(timelineTail)
		}
		s := survivors
		for cfg.Ranks%s != 0 {
			s--
		}
		return s
	}
	stats, err := pcu.Supervise(cfg.Ranks, opt, nextSize, func(ctx *pcu.Ctx, ep pcu.Epoch) error {
		if ctx.Rank() == 0 {
			out.Sizes = append(out.Sizes, ep.Size)
			if ep.Attempt == 1 {
				out.Failed = ep.Failed
				logf(cfg, "chaos: world revoked (failed %v); recovering on %d ranks\n", ep.Failed, ep.Size)
			}
		}
		return run(ctx, cfg, ep.Attempt > 0, &out.Restored, &finalImb)
	})
	out.Retries, out.Replays = stats.Retries, stats.Replays
	if err == nil {
		switch {
		case len(out.Sizes) > 1:
			out.Kind = "recovered-shrink"
		case out.Retries+out.Replays > 0:
			out.Kind = "retried-transient"
		default:
			out.Kind = "clean"
		}
		out.Verified, out.FinalImb = true, finalImb
		logf(cfg, "chaos: %s\n", out)
		return out, nil
	}
	out.RunErr = err.Error()
	out.Kind = classifyFailure(err)
	if out.Timeline == nil {
		out.Timeline = tr.TailStrings(timelineTail)
	}
	if out.Kind == "" {
		return out, fmt.Errorf("chaos: seed %d produced an unclassifiable failure: %w", cfg.Seed, err)
	}
	logf(cfg, "chaos: faulted world failed (%s): %v\n", out.Kind, err)
	if !meshio.CheckpointExists(cfg.Dir) {
		// The failure landed before the first balancing iteration
		// committed a checkpoint; a structured failure with nothing to
		// restore is still a passing soak.
		logf(cfg, "chaos: %s\n", out)
		return out, nil
	}
	opt.Faults, opt.Trace = nil, nil
	if _, err := pcu.RunOpt(cfg.Ranks, opt, func(ctx *pcu.Ctx) error {
		return run(ctx, cfg, true, &out.Restored, &finalImb)
	}); err != nil {
		return out, fmt.Errorf("chaos: seed %d: fault-free restart from checkpoint failed: %w", cfg.Seed, err)
	}
	out.Verified, out.FinalImb = true, finalImb
	logf(cfg, "chaos: %s\n", out)
	return out, nil
}

// run is one world's body: it restores the committed checkpoint when
// asked to and one exists — setting *restored on rank 0 — or builds the
// workload from scratch, then balances with a checkpoint after every
// iteration and verifies. Rank 0 stores the final imbalance in *imb.
func run(ctx *pcu.Ctx, cfg Config, restore bool, restored *bool, imb *float64) error {
	var dm *partition.DMesh
	var resume meshio.Cursor
	var err error
	if restore && meshio.CheckpointExists(cfg.Dir) {
		dm, resume, err = meshio.LoadCheckpoint(cfg.Dir, ctx, gmi.Box(4, 1, 1).Model)
		if err != nil {
			return fmt.Errorf("restoring checkpoint: %w", err)
		}
		if ctx.Rank() == 0 {
			*restored = true
			logf(cfg, "chaos: restored checkpoint at %s level %d iter %d on %d ranks\n",
				resume.Phase, resume.Level, resume.Iter, ctx.Size())
		}
	} else if dm, err = buildUnbalanced(ctx, cfg); err != nil {
		return verifyAfterAbort(dm, err)
	}
	// Continue from the cursor: the iteration budget already spent is
	// subtracted and saved cursors keep counting from where the
	// interrupted run stopped.
	pcfg := parma.DefaultConfig()
	pcfg.Tolerance = cfg.Tolerance
	pcfg.MaxIters = max(cfg.MaxIters-resume.Iter, 1)
	pcfg.OnIter = func(dm *partition.DMesh, dim, iter int) error {
		return meshio.SaveCheckpoint(cfg.Dir, dm, meshio.Cursor{
			Phase: "parma", Level: dim, Iter: resume.Iter + iter,
		})
	}
	pri, _ := parma.ParsePriority("Rgn")
	if _, err := parma.BalanceSafe(dm, pri, pcfg); err != nil {
		// The abort contract: whatever the wire fault did, the local
		// mesh must still verify before the abort surfaces.
		return verifyAfterAbort(dm, err)
	}
	_, peak := partition.EntityImbalance(dm, dm.Dim)
	if ctx.Rank() == 0 {
		*imb = peak
	}
	return partition.Verify(dm)
}

// buildUnbalanced generates a box mesh on rank 0 and distributes it in
// skewed X slabs: the low-X parts each take a thin slab and the last
// part the remaining majority, so balancing starts from a connected but
// heavily imbalanced layout.
func buildUnbalanced(ctx *pcu.Ctx, cfg Config) (*partition.DMesh, error) {
	model := gmi.Box(4, 1, 1)
	nparts := ctx.Size()
	var serial *mesh.Mesh
	var assign []int32
	if ctx.Rank() == 0 {
		serial = meshgen.Box3D(model, cfg.NX, cfg.NY, cfg.NZ)
		for el := range serial.Elements() {
			p := int32(serial.Centroid(el).X / 4.0 * float64(2*nparts))
			if int(p) >= nparts {
				p = int32(nparts - 1)
			}
			assign = append(assign, p)
		}
	}
	return partition.Distribute(ctx, model.Model, 3, serial, assign, 1)
}

// verifyAfterAbort enforces the abort contract before surfacing the
// abort: the mesh a failed migration leaves behind must still verify.
func verifyAfterAbort(dm *partition.DMesh, abort error) error {
	if verr := partition.Verify(dm); verr != nil {
		return fmt.Errorf("chaos: mesh failed Verify after aborted migration: %v (abort cause: %w)", verr, abort)
	}
	return abort
}

// classifyFailure maps a run error to the structured failure taxonomy;
// "" means the error is none of the injected kinds — a harness failure.
func classifyFailure(err error) string {
	switch {
	case errors.Is(err, pcu.ErrStalled):
		return "stall"
	case errors.Is(err, pcu.ErrRevoked):
		return "revoked"
	case errors.Is(err, pcu.ErrFaultInjected):
		return "injected-panic"
	case errors.Is(err, partition.ErrMigrateAborted):
		return "migrate-abort"
	case errors.Is(err, pcu.ErrCorruptMessage):
		return "corrupt"
	case errors.Is(err, pcu.ErrPeerFailed):
		return "peer"
	case errors.Is(err, pcu.ErrMismatch):
		return "op-mismatch"
	case errors.Is(err, san.ErrOwnership):
		return "san-ownership"
	}
	return ""
}

func logf(cfg Config, format string, args ...any) {
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, format, args...)
	}
}
