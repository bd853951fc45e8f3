package parma

import (
	"bytes"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/trace"
)

// TestBalanceTraced8Ranks is the observability acceptance test: an
// 8-rank ParMA balance run under the flight recorder must produce (a) a
// per-iteration imbalance series every rank agrees on, (b) parma.iter
// and partition.migrate spans on every rank, and (c) a Chrome
// trace-event export and metrics summary that pass schema validation —
// the files pumi-trace and Perfetto consume.
func TestBalanceTraced8Ranks(t *testing.T) {
	const ranks = 8
	tr := trace.New(ranks, trace.Config{})
	_, err := pcu.RunOpt(ranks, pcu.Options{Trace: tr}, func(ctx *pcu.Ctx) error {
		dm := buildImbalanced(ctx, ranks, 16, 4, 4)
		pri, _ := ParsePriority("Rgn")
		res, err := BalanceSafe(dm, pri, Config{Tolerance: 1.05, MaxIters: 60})
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

	// Every rank recorded the same allreduced imbalance trajectory.
	var series []trace.Event
	for r := 0; r < ranks; r++ {
		var mine []trace.Event
		var iters, migrates int
		for _, e := range tr.Rank(r).Snapshot() {
			switch {
			case e.Kind == trace.KindParmaIter:
				mine = append(mine, e)
			case e.Kind == trace.KindBegin && e.Name == "parma.iter":
				iters++
			case e.Kind == trace.KindBegin && e.Name == "partition.migrate":
				migrates++
			}
		}
		if len(mine) < 2 {
			t.Fatalf("rank %d recorded %d parma iterations, want a trajectory", r, len(mine))
		}
		if iters == 0 || migrates == 0 {
			t.Errorf("rank %d recorded %d parma.iter and %d partition.migrate spans, want both > 0", r, iters, migrates)
		}
		if r == 0 {
			series = mine
			if first := mine[0].V; first < 1.4 {
				t.Errorf("first recorded imbalance %.3f, setup should be heavily imbalanced", first)
			}
			if last := mine[len(mine)-1].V; last > 1.15 {
				t.Errorf("last recorded imbalance %.3f, balancing should have converged", last)
			}
		} else {
			if len(mine) != len(series) {
				t.Fatalf("rank %d trajectory length %d != rank 0's %d", r, len(mine), len(series))
			}
			for i := range mine {
				if mine[i].V != series[i].V || mine[i].B != series[i].B {
					t.Errorf("rank %d iteration %d records imb %.4f, rank 0 has %.4f", r, i, mine[i].V, series[i].V)
				}
			}
		}
	}

	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if kind, err := trace.ValidateFile(chrome.Bytes()); err != nil || kind != trace.FileChrome {
		t.Fatalf("8-rank balance chrome export invalid: kind=%v err=%v", kind, err)
	}
	for _, want := range []string{`"parma.iter"`, `"parma.imbalance"`, `"partition.migrate"`} {
		if !strings.Contains(chrome.String(), want) {
			t.Errorf("chrome export missing %s", want)
		}
	}

	s := tr.Summarize()
	if len(s.Parma) != len(series) {
		t.Errorf("summary parma series has %d points, trace has %d", len(s.Parma), len(series))
	}
	var haveMigrate bool
	for _, p := range s.Phases {
		if p.Name == "partition.migrate" && p.Count > 0 && p.Imbalance >= 1 {
			haveMigrate = true
		}
	}
	if !haveMigrate {
		t.Errorf("summary phases missing partition.migrate: %+v", s.Phases)
	}
	var sum bytes.Buffer
	if err := tr.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	if kind, err := trace.ValidateFile(sum.Bytes()); err != nil || kind != trace.FileSummary {
		t.Fatalf("8-rank balance summary invalid: kind=%v err=%v", kind, err)
	}
}
