package chaos

import (
	"fmt"
	"sync"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/san"
)

// RecoverOutcome reports one self-healing soak: a balancing run under a
// seeded fault plan, supervised by pcu.Supervise so a permanent rank
// death revokes the world, which shrinks and resumes from the last
// committed checkpoint instead of aborting.
type RecoverOutcome struct {
	Plan string // fault plan description, "seed N: ..."
	// Outcome classifies how the soak ended:
	//   "clean"             no fault disturbed the run (or only a delay)
	//   "retried-transient" wire damage repaired in-world by the
	//                       retransmit layer; the run completed
	//   "recovered-shrink"  rank death revoked the world; survivors
	//                       rebuilt a smaller one, restored the
	//                       checkpoint and finished
	// or a terminal failure kind from the Soak taxonomy
	// ("injected-panic", "migrate-abort", "corrupt", ...).
	Outcome string
	// Attempts counts worlds used: 1 means no revocation; each extra
	// attempt is one shrink-and-recover cycle.
	Attempts int
	// Sizes is the world size of each attempt.
	Sizes []int
	// Failed lists the ranks that had vanished when the first world was
	// revoked (first-attempt numbering); nil when no revocation happened.
	Failed []int
	// Retries/Replays are the final attempt's transient-fault counters.
	Retries, Replays int64
	// Resumed reports that a recovery attempt restored a checkpoint and
	// resumed from its cursor (rather than rebuilding from scratch).
	Resumed bool
	// FinalImb is the surviving mesh's peak element imbalance; Verified
	// reports that it passed the distributed verifier.
	FinalImb float64
	Verified bool
}

func (o RecoverOutcome) String() string {
	switch o.Outcome {
	case "clean":
		return fmt.Sprintf("%s -> clean (imb %.3f)", o.Plan, o.FinalImb)
	case "retried-transient":
		return fmt.Sprintf("%s -> retried-transient (%d retransmits, %d replays dropped, imb %.3f)",
			o.Plan, o.Retries, o.Replays, o.FinalImb)
	case "recovered-shrink":
		return fmt.Sprintf("%s -> recovered-shrink (failed %v, worlds %v, imb %.3f)",
			o.Plan, o.Failed, o.Sizes, o.FinalImb)
	default:
		return fmt.Sprintf("%s -> %s (not recoverable)", o.Plan, o.Outcome)
	}
}

// RunRecoverable is the self-healing counterpart of Soak: the balancing
// workload runs under pcu.Supervise. Transient wire faults are retried
// away in-world; a permanent rank death revokes the world, and the
// supervisor rebuilds a smaller one over the
// survivors — sized to the largest divisor of the part count — restores
// the last committed checkpoint, resumes balancing from its cursor, and
// finishes with the distributed verifier green. It returns a non-nil
// error only for harness failures (an unclassifiable error, a recovery
// leg that cannot complete); terminal injected failures like a panic
// are reported in the Outcome.
func RunRecoverable(cfg Config) (RecoverOutcome, error) {
	cfg.fillDefaults()
	if cfg.Dir == "" {
		return RecoverOutcome{}, fmt.Errorf("chaos: Config.Dir is required")
	}
	if cfg.Ranks%2 != 0 {
		return RecoverOutcome{}, fmt.Errorf("chaos: Ranks must be even, got %d", cfg.Ranks)
	}
	plan := cfg.Plan
	if plan == nil {
		plan = pcu.RandomFaultPlan(cfg.Seed, cfg.Ranks, cfg.MaxOp)
	}
	out := RecoverOutcome{Plan: plan.String()}
	topo := hwtopo.Cluster(2, cfg.Ranks/2)
	logf(cfg, "chaos: recoverable %s\n", plan)

	// The part count is fixed by the first attempt; a rebuilt world must
	// divide it, so recovery uses the largest divisor that the survivor
	// count can host.
	nextSize := func(survivors int) int {
		for s := survivors; s > 1; s-- {
			if cfg.Ranks%s == 0 {
				return s
			}
		}
		return 1
	}

	if cfg.Sanitize {
		san.Enable()
		defer san.Disable()
	}
	var mu sync.Mutex
	imbs := map[int]float64{}
	stats, err := pcu.Supervise(cfg.Ranks, pcu.Options{
		Topo:         topo,
		Faults:       plan,
		StallTimeout: cfg.StallTimeout,
	}, nextSize, func(ctx *pcu.Ctx, ep pcu.Epoch) error {
		if ctx.Rank() == 0 {
			mu.Lock()
			out.Attempts = ep.Attempt + 1
			out.Sizes = append(out.Sizes, ep.Size)
			if ep.Attempt == 1 {
				out.Failed = ep.Failed
			}
			mu.Unlock()
			if ep.Attempt > 0 {
				logf(cfg, "chaos: world revoked (failed %v); recovering on %d ranks\n", ep.Failed, ep.Size)
			}
		}
		var dm *partition.DMesh
		var resume meshio.Cursor
		if ep.Attempt > 0 && meshio.CheckpointExists(cfg.Dir) {
			// Recovery world: restore the last committed checkpoint onto
			// the survivors and resume where it was taken.
			model := gmi.Box(4, 1, 1)
			var cur meshio.Cursor
			var err error
			dm, cur, err = meshio.LoadCheckpoint(cfg.Dir, ctx, model.Model)
			if err != nil {
				return fmt.Errorf("restoring checkpoint after revocation: %w", err)
			}
			resume = cur
			if ctx.Rank() == 0 {
				mu.Lock()
				out.Resumed = true
				mu.Unlock()
			}
			logf2(cfg, ctx, "chaos: restored checkpoint at %s level %d iter %d on %d ranks\n",
				cur.Phase, cur.Level, cur.Iter, ctx.Size())
		} else {
			// First attempt — or a death before the first checkpoint
			// committed: build the workload from scratch.
			var err error
			dm, err = buildUnbalanced(ctx, cfg)
			if err != nil {
				return verifyAfterAbort(dm, err)
			}
		}
		imb, err := balanceResumed(dm, cfg, resume)
		if err != nil {
			return err
		}
		if err := partition.Verify(dm); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			imbs[ep.Attempt] = imb
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		out.Outcome = classifyFailure(err)
		if out.Outcome == "" {
			return out, fmt.Errorf("chaos: seed %d produced an unclassifiable failure: %w", cfg.Seed, err)
		}
		logf(cfg, "chaos: %s\n", out)
		return out, nil
	}
	out.Verified = true
	out.Retries = stats.Retries
	out.Replays = stats.Replays
	mu.Lock()
	out.FinalImb = imbs[out.Attempts-1]
	mu.Unlock()
	switch {
	case out.Attempts > 1:
		out.Outcome = "recovered-shrink"
	case out.Retries > 0 || out.Replays > 0:
		out.Outcome = "retried-transient"
	default:
		out.Outcome = "clean"
	}
	logf(cfg, "chaos: %s\n", out)
	return out, nil
}

// balanceResumed is balanceCheckpointed continuing from a checkpoint
// cursor: the iteration budget already spent is subtracted and saved
// cursors keep counting from where the interrupted run stopped.
func balanceResumed(dm *partition.DMesh, cfg Config, resume meshio.Cursor) (float64, error) {
	pcfg := parma.DefaultConfig()
	pcfg.Tolerance = cfg.Tolerance
	pcfg.MaxIters = cfg.MaxIters - resume.Iter
	if pcfg.MaxIters < 1 {
		pcfg.MaxIters = 1
	}
	pcfg.OnIter = func(dm *partition.DMesh, dim, iter int) error {
		return meshio.SaveCheckpoint(cfg.Dir, dm, meshio.Cursor{
			Phase: "parma", Level: dim, Iter: resume.Iter + iter,
		})
	}
	pri, _ := parma.ParsePriority("Rgn")
	if _, err := parma.BalanceSafe(dm, pri, pcfg); err != nil {
		return 0, verifyAfterAbort(dm, err)
	}
	_, imb := partition.EntityImbalance(dm, dm.Dim)
	return imb, nil
}
