package partition

import (
	"testing"

	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/telemetry"
)

// TestPlannedExchangeMetered checks a run with no registry installed
// still feeds the partition layer's live series into its own registry
// (Ctx.Metrics is never nil): plan compilation latencies and the spans
// of the planned exchanges (sync and ghost push), and migration
// durations from the initial distribution.
func TestPlannedExchangeMetered(t *testing.T) {
	var reg *telemetry.Registry
	const ranks = 4
	err := pcu.Run(ranks, func(ctx *pcu.Ctx) error {
		if ctx.Rank() == 0 {
			reg = ctx.Metrics()
		}
		dm := planWorld(ctx)
		round := func() {
			SyncShared(dm, []int{0},
				func(p *Part, e mesh.Ent, b *pcu.Buffer) { b.Float64(float64(p.Gid(e))) },
				func(p *Part, e mesh.Ent, r *pcu.Reader) { _ = r.Float64() })
		}
		round()
		round()                    // second round hits the cached plan: exec without compile
		SyncGhostFloatTag(dm, "u") // no ghosts, no tag: an empty round
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
	if reg == nil {
		t.Fatal("Ctx.Metrics is nil in a world with no registry installed")
	}
	if n := reg.Histogram("partition.sync.ns").Count(); n < ranks*2 {
		t.Errorf("sync span observations = %d, want >= %d", n, ranks*2)
	}
	if n := reg.Histogram("partition.ghost.sync.ns").Count(); n < ranks {
		t.Errorf("ghost push span observations = %d, want >= %d", n, ranks)
	}
	if reg.Histogram("partition.plan.compile.ns").Count() == 0 {
		t.Error("no plan compile durations recorded")
	}
	if reg.Histogram("partition.migrate.ns").Count() == 0 {
		t.Error("no migration durations recorded")
	}
}
