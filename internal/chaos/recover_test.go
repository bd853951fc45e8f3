package chaos

import (
	"slices"
	"testing"
	"time"

	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/trace"
)

// The workload's deterministic op timeline on rank 1 (probed fault-free
// by TestOpTargets): setup migration ends at op 6, the first checkpoint
// commits at op 16, and each balancing iteration spans 10 ops — one
// count gather, a 6-op migration, a 3-op checkpoint. Op 9 is an
// exchange inside iteration 0's migration where rank 1 sends off-node
// (wire damage there exercises the retransmit layer); op 28 is past two
// committed checkpoints (a death there must recover from one).
const (
	opInsideMigration  = 9
	opAfterCheckpoints = 28
)

// opProbe is what rank 1 was doing at one op of a fault-free run.
type opProbe struct {
	name    string   // the op
	open    []string // spans open around it, outermost first
	offNode bool     // it sent at least one off-node frame
	saves   int      // checkpoint saves completed before it
}

// probeOp runs the workload fault-free under the flight recorder, with a
// zero delay marking op on rank 1, and reads what rank 1 did there.
func probeOp(t *testing.T, op int64) opProbe {
	t.Helper()
	cfg := Config{Dir: t.TempDir()}
	cfg.fillDefaults()
	tr := trace.New(cfg.Ranks)
	opt := pcu.Options{
		Topo:   hwtopo.Cluster(2, cfg.Ranks/2),
		Faults: &pcu.FaultPlan{Faults: []pcu.Fault{{Rank: 1, Op: op, Kind: pcu.FaultDelay}}},
		Trace:  tr,
	}
	var restored bool
	var imb float64
	if _, err := pcu.RunOpt(cfg.Ranks, opt, func(ctx *pcu.Ctx) error {
		return run(ctx, cfg, false, &restored, &imb)
	}); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	var p opProbe
	var stack []string
	at := false
	for _, e := range tr.Rank(1).Snapshot() {
		switch e.Kind {
		case trace.KindBegin:
			stack = append(stack, e.Name)
		case trace.KindEnd:
			if at {
				return p
			}
			if len(stack) == 0 {
				t.Fatal("probe trace starts inside a span: the ring overflowed")
			}
			stack = stack[:len(stack)-1]
			if e.Name == "meshio.checkpoint.save" {
				p.saves++
			}
		case trace.KindFault:
			if e.A == op {
				at = true
				p.name, p.open = stack[len(stack)-1], slices.Clone(stack[:len(stack)-1])
			}
		case trace.KindSend:
			p.offNode = p.offNode || (at && e.V == 0)
		}
	}
	t.Fatalf("op %d not found in rank 1's trace", op)
	return p
}

// TestOpTargets pins the op targets to the phases they are meant to
// strike, so a change in the op schedule fails here by name instead of
// silently moving the fault matrix's faults elsewhere.
func TestOpTargets(t *testing.T) {
	in := probeOp(t, opInsideMigration)
	if in.name != "exchange" || !slices.Contains(in.open, "partition.migrate") || !slices.Contains(in.open, "parma.iter") || !in.offNode {
		t.Errorf("op %d on rank 1 is %s inside %v (off-node sends %v), want an off-node exchange inside a balancing migration",
			opInsideMigration, in.name, in.open, in.offNode)
	}
	if after := probeOp(t, opAfterCheckpoints); after.saves < 2 {
		t.Errorf("op %d on rank 1 follows %d committed checkpoints, want at least 2", opAfterCheckpoints, after.saves)
	}
}

// TestFaultMatrixClassification drives every FaultKind through the soak
// and asserts it lands on its designed outcome: the transient kinds are
// mitigated in-world, a permanent death shrinks and recovers — from the
// checkpoint, or from scratch when none committed yet — and a panic is
// a structured failure the fault-free restart recovers from the
// checkpoint.
func TestFaultMatrixClassification(t *testing.T) {
	cases := []struct {
		name             string
		fault            pcu.Fault
		want             string
		retries, replays int64
		sizes, failed    []int
		restored         bool
	}{
		{name: "panic", fault: pcu.Fault{Rank: 1, Op: opAfterCheckpoints, Kind: pcu.FaultPanic},
			want: "injected-panic", sizes: []int{4}, restored: true},
		{name: "vanish", fault: pcu.Fault{Rank: 1, Op: opAfterCheckpoints, Kind: pcu.FaultVanish},
			want: "recovered-shrink", sizes: []int{4, 2}, failed: []int{1}, restored: true},
		{name: "vanish-before-checkpoint", fault: pcu.Fault{Rank: 3, Op: 3, Kind: pcu.FaultVanish},
			want: "recovered-shrink", sizes: []int{4, 2}, failed: []int{3}},
		{name: "delay", fault: pcu.Fault{Rank: 1, Op: opAfterCheckpoints, Kind: pcu.FaultDelay, Delay: 5 * time.Millisecond},
			want: "clean", sizes: []int{4}},
		{name: "corrupt", fault: pcu.Fault{Rank: 1, Op: opInsideMigration, Kind: pcu.FaultCorrupt},
			want: "retried-transient", retries: 2, sizes: []int{4}},
		{name: "truncate", fault: pcu.Fault{Rank: 1, Op: opInsideMigration, Kind: pcu.FaultTruncate},
			want: "retried-transient", retries: 2, sizes: []int{4}},
		{name: "duplicate", fault: pcu.Fault{Rank: 1, Op: opInsideMigration, Kind: pcu.FaultDuplicate},
			want: "retried-transient", replays: 2, sizes: []int{4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := Soak(Config{
				Plan:         &pcu.FaultPlan{Faults: []pcu.Fault{tc.fault}},
				Dir:          t.TempDir(),
				StallTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatalf("harness failure: %v", err)
			}
			if out.Kind != tc.want {
				t.Fatalf("fault %v classified %q, want %q\n%s", tc.fault, out.Kind, tc.want, out)
			}
			if out.Retries != tc.retries || out.Replays != tc.replays {
				t.Errorf("retries/replays = %d/%d, want %d/%d", out.Retries, out.Replays, tc.retries, tc.replays)
			}
			if !slices.Equal(out.Sizes, tc.sizes) || !slices.Equal(out.Failed, tc.failed) {
				t.Errorf("worlds %v failed %v, want %v %v", out.Sizes, out.Failed, tc.sizes, tc.failed)
			}
			if out.Restored != tc.restored {
				t.Errorf("restored from checkpoint = %v, want %v", out.Restored, tc.restored)
			}
			if !out.Verified {
				t.Error("the surviving mesh must pass the distributed verifier")
			}
		})
	}
}

// TestRecoverableShrinkDetails spells out the shrink recovery of a rank
// death past the checkpoints one fact at a time: the world shrinks once,
// to the largest divisor of the part count the survivors can host, and
// the shrunk world resumes from the committed checkpoint.
func TestRecoverableShrinkDetails(t *testing.T) {
	out, err := Soak(Config{
		Plan:         &pcu.FaultPlan{Faults: []pcu.Fault{{Rank: 1, Op: opAfterCheckpoints, Kind: pcu.FaultVanish}}},
		Dir:          t.TempDir(),
		StallTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("harness failure: %v", err)
	}
	if out.Kind != "recovered-shrink" {
		t.Fatalf("want recovered-shrink, got %s", out)
	}
	if len(out.Sizes) != 2 {
		t.Fatalf("want 2 attempts, got %d (worlds %v)", len(out.Sizes), out.Sizes)
	}
	// 4 parts, 3 survivors: the recovery world is the largest divisor of
	// 4 that 3 survivors can host — 2 ranks.
	if !slices.Equal(out.Sizes, []int{4, 2}) {
		t.Fatalf("want world sizes [4 2], got %v", out.Sizes)
	}
	if !slices.Equal(out.Failed, []int{1}) {
		t.Fatalf("want convicted ranks [1], got %v", out.Failed)
	}
	if !out.Restored {
		t.Fatal("recovery should restore the committed checkpoint, not rebuild from scratch")
	}
	if !out.Verified {
		t.Fatal("recovered mesh must pass the distributed verifier")
	}
}

// TestRecoverableDeterministicPerSeed reruns the same explicit plan and
// asserts the recovery trajectory is identical — the acceptance bar for
// replayable failure investigations.
func TestRecoverableDeterministicPerSeed(t *testing.T) {
	run := func() Outcome {
		t.Helper()
		out, err := Soak(Config{
			Seed:         7,
			Plan:         &pcu.FaultPlan{Seed: 7, Faults: []pcu.Fault{{Rank: 2, Op: opAfterCheckpoints, Kind: pcu.FaultVanish}}},
			Dir:          t.TempDir(),
			StallTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatalf("harness failure: %v", err)
		}
		return out
	}
	a, b := run(), run()
	if a.Kind != b.Kind || !slices.Equal(a.Sizes, b.Sizes) || !slices.Equal(a.Failed, b.Failed) {
		t.Fatalf("same plan diverged:\n%+v\nvs\n%+v", a, b)
	}
}
