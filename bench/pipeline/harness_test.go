package pipeline

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/fastmath/pumi-go/internal/pcu"
)

// A failure on any rank counts once, voids that cycle's sample and is
// reported with its rank; the library's collectives inside timed stages
// are counted exactly, without the harness's own barriers.
func TestHarnessCountsOperationsAndCollectives(t *testing.T) {
	for _, traced := range []bool{false, true} {
		pd := &passData{notes: map[string][]float64{}, setupSum: map[string]counters{}}
		recs := []*Recorder{NewRecorder(0, time.Now(), 64), NewRecorder(1, time.Now(), 64)}
		g := &gate{}
		_, err := pcu.RunOpt(2, pcu.Options{}, func(ctx *pcu.Ctx) error {
			h := &harness{ctx: ctx, pass: pd, gate: g, scratch: newRefScratch(), traced: traced, rec: recs[ctx.Rank()], cycle: -1, cycleSpan: -1}
			for n := 0; n < 3; n++ {
				h.beginCycle(n)
				h.stage("first", func() error { pcu.SumInt64(ctx, 1); return nil })
				h.untimed("check", func() error {
					pcu.SumInt64(ctx, 1) // outside the clock: not counted
					if n == 2 && ctx.Rank() == 1 {
						return errors.New("boom")
					}
					return nil
				})
				h.stage("second", func() error { pcu.SumInt64(ctx, 1); pcu.SumInt64(ctx, 1); return nil })
				h.endCycle(10, 1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if pd.ops != 9 || pd.failed != 1 {
			t.Errorf("traced=%v: ops %d failed %d, want 9 and 1", traced, pd.ops, pd.failed)
		}
		if len(pd.cycles) != 2 || pd.cycles[0].failed || !pd.cycles[1].failed {
			t.Fatalf("traced=%v: cycles %+v", traced, pd.cycles)
		}
		if len(goodCycles(pd)) != 1 {
			t.Errorf("traced=%v: the failed cycle's sample was kept", traced)
		}
		if len(pd.failures) != 1 || !strings.Contains(pd.failures[0], "rank 1 cycle 2 check: boom") {
			t.Errorf("traced=%v: failures %q", traced, pd.failures)
		}
		// Three allreduces in the timed stages, entered by two ranks.
		for i, c := range pd.cycles {
			if c.delta.traffic.Collectives != 6 {
				t.Errorf("traced=%v cycle %d: %d collectives in the timed stages, want 6", traced, i+1, c.delta.traffic.Collectives)
			}
			if c.seconds <= 0 {
				t.Errorf("traced=%v cycle %d: no time measured", traced, i+1)
			}
		}
		if traced {
			if n := len(recs[0].Spans()); n != 12 {
				t.Errorf("%d spans on rank 0, want 3 cycles x (cycle + 3 stages)", n)
			}
			for _, s := range recs[0].Spans() {
				if s.Name == "second" && s.Traffic.Collectives != 4 {
					t.Errorf("span %q saw %d collectives, want 4", s.Name, s.Traffic.Collectives)
				}
			}
		}
	}
}
