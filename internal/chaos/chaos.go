// Package chaos drives the ParMA balancing stack under seeded fault
// injection and checks the recovery story end to end: every run either
// completes cleanly or fails with a structured, diagnosable error — and
// when a checkpoint was committed before the failure, a fresh
// fault-free world restores it and finishes balancing with the
// partition verifier green. The fault plan derives deterministically
// from the seed, so any failure reproduces by rerunning the same seed.
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
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/san"
	"github.com/fastmath/pumi-go/internal/trace"
)

// timelineTail is how many flight-recorder events per rank a failed
// attempt's Outcome.Timeline carries.
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
	// Sanitize runs both attempts under pumi-san: mesh writes go
	// through the ownership guard and the runs fold their op sequence
	// into the trace hash.
	Sanitize bool
	// Trace records the faulted attempt with the flight recorder; when
	// the attempt fails, Outcome.Timeline carries each rank's event tail
	// so a failure report shows what led up to it, not just the final
	// error.
	Trace bool
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Outcome reports what one soak observed. Plan and FailKind are
// deterministic functions of the seed and workload.
type Outcome struct {
	Plan     string // fault plan description, "seed N: ..."
	CleanRun bool   // the faulted attempt completed and verified
	RunErr   string // structured error from the faulted attempt, if any
	FailKind string // "", "injected-panic", "stall", "migrate-abort", "corrupt", "peer"
	// Restarted/Restored report the recovery leg: a checkpoint existed
	// after the failure, and a fresh world loaded it and finished
	// balancing with Verify green.
	Restarted bool
	Restored  bool
	FinalImb  float64 // peak element imbalance of the surviving mesh
	// Timeline holds each rank's flight-recorder tail from the faulted
	// attempt (one rendered line per rank) when Config.Trace was on and
	// the attempt failed.
	Timeline []string
}

func (o Outcome) String() string {
	switch {
	case o.CleanRun:
		return fmt.Sprintf("%s -> clean (imb %.3f)", o.Plan, o.FinalImb)
	case o.Restored:
		return fmt.Sprintf("%s -> %s, restored from checkpoint (imb %.3f)", o.Plan, o.FailKind, o.FinalImb)
	case o.Restarted:
		return fmt.Sprintf("%s -> %s, restart attempted", o.Plan, o.FailKind)
	default:
		return fmt.Sprintf("%s -> %s, no checkpoint to restore", o.Plan, o.FailKind)
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

// Soak runs one faulted balancing attempt followed, on failure, by a
// fault-free restart from the last committed checkpoint. It returns a
// non-nil error only for harness failures: an unclassifiable error
// kind, a mesh that fails Verify after a supposedly clean abort, or a
// restart that cannot complete. Structured injected failures are part
// of a successful soak and are reported in the Outcome.
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
	topo := hwtopo.Cluster(2, cfg.Ranks/2)
	logf(cfg, "chaos: %s\n", plan)

	finalImb := make([]float64, cfg.Ranks)
	if cfg.Sanitize {
		san.Enable()
		defer san.Disable()
	}
	var tr *trace.Trace
	if cfg.Trace {
		tr = trace.New(cfg.Ranks)
	}
	_, err := pcu.RunOpt(cfg.Ranks, pcu.Options{
		Topo:         topo,
		Faults:       plan,
		StallTimeout: cfg.StallTimeout,
		Trace:        tr,
	}, func(ctx *pcu.Ctx) error {
		dm, err := buildUnbalanced(ctx, cfg)
		if err != nil {
			return verifyAfterAbort(dm, err)
		}
		imb, err := balanceCheckpointed(dm, cfg)
		if err != nil {
			return err
		}
		finalImb[ctx.Rank()] = imb
		return partition.Verify(dm)
	})
	if err == nil {
		out.CleanRun = true
		out.FinalImb = finalImb[0]
		logf(cfg, "chaos: %s\n", out)
		return out, nil
	}
	out.RunErr = err.Error()
	out.FailKind = classifyFailure(err)
	out.Timeline = tr.TailStrings(timelineTail)
	if out.FailKind == "" {
		return out, fmt.Errorf("chaos: seed %d produced an unclassifiable failure: %w", cfg.Seed, err)
	}
	logf(cfg, "chaos: faulted attempt failed (%s): %v\n", out.FailKind, err)

	if !meshio.CheckpointExists(cfg.Dir) {
		// The failure landed before the first balancing iteration
		// committed a checkpoint; a structured failure with nothing to
		// restore is still a passing soak.
		logf(cfg, "chaos: %s\n", out)
		return out, nil
	}
	out.Restarted = true
	_, err = pcu.RunOpt(cfg.Ranks, pcu.Options{
		Topo:         topo,
		StallTimeout: cfg.StallTimeout,
	}, func(ctx *pcu.Ctx) error {
		model := gmi.Box(4, 1, 1)
		dm, curs, err := meshio.LoadCheckpoint(cfg.Dir, ctx, model.Model)
		if err != nil {
			return fmt.Errorf("loading checkpoint: %w", err)
		}
		logf2(cfg, ctx, "chaos: restored checkpoint at %s level %d iter %d\n", curs.Phase, curs.Level, curs.Iter)
		imb, err := balanceCheckpointed(dm, cfg)
		if err != nil {
			return err
		}
		finalImb[ctx.Rank()] = imb
		return partition.Verify(dm)
	})
	if err != nil {
		return out, fmt.Errorf("chaos: seed %d: fault-free restart from checkpoint failed: %w", cfg.Seed, err)
	}
	out.Restored = true
	out.FinalImb = finalImb[0]
	logf(cfg, "chaos: %s\n", out)
	return out, nil
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

// balanceCheckpointed runs element balancing with a checkpoint
// committed after every migration iteration, verifying the mesh is
// still consistent if the balance aborts. Returns the final peak
// element imbalance.
func balanceCheckpointed(dm *partition.DMesh, cfg Config) (float64, error) {
	// The abort contract: whatever the wire fault did, the local mesh
	// must still verify before the abort surfaces (balanceResumed runs
	// verifyAfterAbort on failure).
	return balanceResumed(dm, cfg, meshio.Cursor{})
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

// logf2 logs from rank 0 only inside a run body.
func logf2(cfg Config, ctx *pcu.Ctx, format string, args ...any) {
	if cfg.Log != nil && ctx.Rank() == 0 {
		fmt.Fprintf(cfg.Log, format, args...)
	}
}
