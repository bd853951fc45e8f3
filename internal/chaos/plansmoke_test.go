package chaos

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/fastmath/pumi-go/internal/pcu"
)

// TestPlanSmokeRecoverDeterministicHashes is the plan-smoke lane: a
// recoverable chaos soak over the plan-backed ParMA balance, run with
// the pcu sanitizer recording the collective op sequence. For each
// fault scenario the soak runs twice from a fresh ledger and the two
// passes must report identical recovery trajectories AND identical
// sanitizer summaries — the cumulative op-sequence hash over the clean
// sanitized legs. A nondeterministic compiled plan (unstable peer
// order, epoch cache serving stale schedules after the shrink) would
// perturb the op stream and split the hashes.
func TestPlanSmokeRecoverDeterministicHashes(t *testing.T) {
	scenarios := []struct {
		seed  int64
		fault pcu.Fault
	}{
		{seed: 3, fault: pcu.Fault{Rank: 1, Op: opAfterCheckpoints, Kind: pcu.FaultVanish}},
		{seed: 11, fault: pcu.Fault{Rank: 2, Op: opAfterCheckpoints, Kind: pcu.FaultVanish}},
	}
	for _, sc := range scenarios {
		t.Run(fmt.Sprintf("seed%d", sc.seed), func(t *testing.T) {
			run := func() (Outcome, int64, uint64) {
				t.Helper()
				pcu.ResetSanSummary()
				out, err := Soak(Config{
					Seed:         sc.seed,
					Plan:         &pcu.FaultPlan{Seed: sc.seed, Faults: []pcu.Fault{sc.fault}},
					Dir:          t.TempDir(),
					StallTimeout: 30 * time.Second,
					Sanitize:     true,
				})
				if err != nil {
					t.Fatalf("harness failure: %v", err)
				}
				runs, hash := pcu.SanSummary()
				return out, runs, hash
			}
			outA, runsA, hashA := run()
			outB, runsB, hashB := run()

			if outA.Kind != "recovered-shrink" || !outA.Verified {
				t.Fatalf("soak did not recover a verified mesh: %s", outA)
			}
			if outA.Kind != outB.Kind ||
				!slices.Equal(outA.Sizes, outB.Sizes) || !slices.Equal(outA.Failed, outB.Failed) {
				t.Fatalf("recovery trajectory diverged between identical runs:\n%+v\nvs\n%+v", outA, outB)
			}
			if runsA == 0 {
				t.Fatal("sanitized soak folded no clean runs into the ledger")
			}
			if runsA != runsB || hashA != hashB {
				t.Fatalf("op-sequence summary diverged between identical runs: (%d, %#x) vs (%d, %#x)",
					runsA, hashA, runsB, hashB)
			}
		})
	}
}
