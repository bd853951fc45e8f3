package chaos

import (
	"strings"
	"testing"
	"time"
)

func soak(t *testing.T, seed int64) Outcome {
	t.Helper()
	out, err := Soak(Config{
		Seed:         seed,
		Dir:          t.TempDir(),
		StallTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("seed %d: harness failure: %v", seed, err)
	}
	return out
}

// TestSoakFixedSeeds drives the balancing stack under a spread of
// seeded fault plans. Every run must end in a success (clean, retried
// or shrunk) or a structured failure; when a checkpoint was committed
// before the failure, the restart leg must restore it and finish
// Verify-green.
// Seeds are fixed so CI failures reproduce exactly.
func TestSoakFixedSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	kinds := map[string]int{}
	for _, seed := range seeds {
		out := soak(t, seed)
		t.Logf("%s", out)
		kinds[out.Kind]++
		if out.Restored && !out.Verified {
			t.Fatalf("seed %d: restart from checkpoint did not complete: %+v", seed, out)
		}
	}
	if len(kinds) < 2 {
		t.Errorf("seed spread exercised only %v; widen the seed list", kinds)
	}
}

// TestSoakSanitized is the pumi-san smoke: the whole faulted balancing
// stack — setup migration, ParMA iterations, checkpoint restore — runs
// under the sanitizer. A clean seed must stay clean (no false
// divergence or ownership findings from the real protocols), and a
// faulted seed must still classify structurally.
func TestSoakSanitized(t *testing.T) {
	seeds := []int64{1, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		out, err := Soak(Config{
			Seed:         seed,
			Dir:          t.TempDir(),
			StallTimeout: 20 * time.Second,
			Sanitize:     true,
		})
		if err != nil {
			t.Fatalf("seed %d: sanitized harness failure: %v", seed, err)
		}
		t.Logf("%s", out)
		if out.Restored && !out.Verified {
			t.Fatalf("seed %d: sanitized restart did not complete: %+v", seed, out)
		}
	}
}

// TestSoakDeterministic reruns one seed and demands the same fault
// plan and the same classified failure — the reproducibility contract
// that makes chaos failures debuggable. Error text is compared too,
// except for stalls, whose watchdog snapshots depend on timing.
func TestSoakDeterministic(t *testing.T) {
	const seed = 3
	a := soak(t, seed)
	b := soak(t, seed)
	if a.Plan != b.Plan {
		t.Fatalf("fault plan not reproducible:\n  %s\n  %s", a.Plan, b.Plan)
	}
	if a.Kind != b.Kind {
		t.Fatalf("outcome not reproducible:\n  %+v\n  %+v", a, b)
	}
	if a.Kind != "stall" && a.RunErr != b.RunErr {
		t.Fatalf("error text not reproducible:\n  %q\n  %q", a.RunErr, b.RunErr)
	}
}

// TestSoakTracedTimeline runs seeds under the flight recorder until one
// world fails or is revoked and checks the Outcome carries a per-rank
// timeline of the events leading up to it — the chaos analogue of the
// watchdog's StallError trails.
func TestSoakTracedTimeline(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		out, err := Soak(Config{
			Seed:         seed,
			Dir:          t.TempDir(),
			StallTimeout: 20 * time.Second,
			Trace:        true,
		})
		if err != nil {
			t.Fatalf("seed %d: harness failure: %v", seed, err)
		}
		if out.Kind == "clean" || out.Kind == "retried-transient" {
			if out.Timeline != nil {
				t.Fatalf("seed %d: completed run should not attach a timeline", seed)
			}
			continue
		}
		if len(out.Timeline) == 0 {
			t.Fatalf("seed %d: failed traced world (%s) has no timeline", seed, out.Kind)
		}
		for r, line := range out.Timeline {
			if !strings.Contains(line, "rank ") {
				t.Errorf("seed %d: timeline line %d %q not rank-labelled", seed, r, line)
			}
		}
		// The faulted attempt's last recorded ops must appear: every
		// failing plan strikes inside a collective or exchange window.
		joined := strings.Join(out.Timeline, "\n")
		if !strings.Contains(joined, "{") && !strings.Contains(joined, "fault") {
			t.Errorf("seed %d: timeline names no operations or faults:\n%s", seed, joined)
		}
		return // one failing seed is the point; keep the test fast
	}
	t.Fatal("no seed in 1..8 produced a failure; widen the seed range")
}
