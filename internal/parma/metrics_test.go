package parma

import (
	"testing"

	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/telemetry"
)

// TestBalanceMetered checks a metered ParMA run feeds the live
// telemetry series: per-iteration durations, total balance time, the
// allreduced-imbalance gauge, and the partition-layer migration
// histogram underneath.
func TestBalanceMetered(t *testing.T) {
	reg := telemetry.NewRegistry()
	const ranks = 4
	_, err := pcu.RunOpt(ranks, pcu.Options{Metrics: reg}, func(ctx *pcu.Ctx) error {
		dm := buildImbalanced(ctx, ranks, 12, 4, 4)
		pri, _ := ParsePriority("Rgn")
		res, err := BalanceSafe(dm, pri, Config{Tolerance: 1.05, MaxIters: 40})
		if err != nil {
			return err
		}
		if len(res.Levels) != 1 || res.Levels[0].Iters == 0 {
			t.Errorf("balance made no iterations: %+v", res.Levels)
		}
		return partition.Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Histogram("parma.iter.ns").Count(); n < ranks {
		t.Errorf("parma.iter.ns observations = %d, want >= %d", n, ranks)
	}
	if n := reg.Histogram("parma.balance.ns").Count(); n != ranks {
		t.Errorf("parma.balance.ns observations = %d, want %d", n, ranks)
	}
	// Every iteration publishes the allreduced imbalance; after a
	// converged balance the last published value is near 1.
	if v, ok := reg.Gauge("parma.imbalance").Get(0); !ok || v < 1 || v > 2 {
		t.Errorf("parma.imbalance gauge = %v (set=%v), want a plausible final imbalance", v, ok)
	}
	if reg.Histogram("partition.migrate.ns").Count() == 0 {
		t.Error("no migration durations recorded during a metered balance")
	}
}
