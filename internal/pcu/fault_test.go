package pcu

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/fastmath/pumi-go/internal/hwtopo"
)

// collectiveLoop is a body doing nops collectives so fault plans have
// operations to strike.
func collectiveLoop(nops int) func(*Ctx) error {
	return func(c *Ctx) error {
		for i := 0; i < nops; i++ {
			SumInt64(c, int64(c.Rank()))
		}
		return nil
	}
}

func TestFaultPanicDeterministic(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Rank: 1, Op: 3, Kind: FaultPanic}}}
	var msgs []string
	for i := 0; i < 2; i++ {
		_, err := RunOpt(4, Options{Faults: plan}, collectiveLoop(5))
		if !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("run %d: want ErrFaultInjected, got %v", i, err)
		}
		if !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "op 3") {
			t.Fatalf("error does not name rank/op: %v", err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("injected failure not deterministic:\n%s\nvs\n%s", msgs[0], msgs[1])
	}
}

func TestFaultVanishDiagnosedByWatchdog(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Rank: 2, Op: 2, Kind: FaultVanish}}}
	_, err := RunOpt(4, Options{Faults: plan, StallTimeout: 5 * time.Second}, collectiveLoop(4))
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("stall error should wrap ErrStalled: %v", err)
	}
	var vanished, blocked int
	for _, r := range stall.Ranks {
		if r.Vanished {
			vanished++
			if r.Rank != 2 {
				t.Errorf("wrong vanished rank: %+v", r)
			}
		}
		if r.Blocked {
			blocked++
		}
	}
	if vanished != 1 || blocked != 3 {
		t.Fatalf("want 1 vanished + 3 blocked ranks, got %d/%d in:\n%v", vanished, blocked, err)
	}
}

func TestSkippedExchangeDiagnosedByWatchdog(t *testing.T) {
	// Rank 0 skips the phase entirely; its peers block in Exchange
	// forever. The watchdog must terminate the run with a diagnosis
	// naming the stalled ranks and their phase counts — the run must
	// never hang until the Go test timeout.
	_, err := RunOpt(4, Options{StallTimeout: 5 * time.Second}, func(c *Ctx) error {
		//pumi-vet:ignore collseq // deliberate divergence: the watchdog must catch it
		if c.Rank() == 0 {
			return nil // never calls Exchange
		}
		c.To((c.Rank() + 1) % 4).Int32(int32(c.Rank()))
		c.Exchange()
		return nil
	})
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *StallError, got %v", err)
	}
	for _, r := range stall.Ranks {
		switch r.Rank {
		case 0:
			if !r.Done || r.Blocked {
				t.Errorf("rank 0 should be reported finished: %+v", r)
			}
			if r.Exchanges != 0 {
				t.Errorf("rank 0 phase count should be 0: %+v", r)
			}
		default:
			if !r.Blocked || r.Op != "exchange" {
				t.Errorf("rank %d should be blocked in exchange: %+v", r.Rank, r)
			}
			if r.Exchanges != 1 {
				t.Errorf("rank %d should report 1 exchange entered: %+v", r.Rank, r)
			}
		}
	}
	if !strings.Contains(err.Error(), "blocked in exchange") {
		t.Fatalf("diagnosis should name the blocked op:\n%v", err)
	}
}

func TestMismatchedCollectiveDiagnosedByWatchdog(t *testing.T) {
	// Ranks 1..3 enter an Allreduce rank 0 never joins; after rank 0
	// finishes they are parked for good.
	_, err := RunOpt(4, Options{StallTimeout: 5 * time.Second}, func(c *Ctx) error {
		c.Barrier()
		//pumi-vet:ignore collseq // deliberate divergence: the watchdog must catch it
		if c.Rank() != 0 {
			SumInt64(c, 1)
		}
		return nil
	})
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *StallError, got %v", err)
	}
	var blocked int
	for _, r := range stall.Ranks {
		if r.Blocked {
			blocked++
			if r.Op != "allreduce" {
				t.Errorf("blocked rank %d should be in allreduce: %+v", r.Rank, r)
			}
			if r.Collectives != 2 {
				t.Errorf("blocked rank %d should count 2 collectives: %+v", r.Rank, r)
			}
		}
	}
	if blocked != 3 {
		t.Fatalf("want 3 blocked ranks, got %d:\n%v", blocked, err)
	}
}

func TestFaultDelayCompletesClean(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Rank: 0, Op: 1, Kind: FaultDelay, Delay: 5 * time.Millisecond}}}
	if _, err := RunOpt(3, Options{Faults: plan}, collectiveLoop(3)); err != nil {
		t.Fatalf("delay fault should not fail the run: %v", err)
	}
}

// offNodePair runs 2 ranks on separate nodes so all cross-rank traffic
// is framed, with rank 0's first exchange subject to the given fault.
func offNodePair(kind FaultKind, body func(*Ctx) error) error {
	_, err := offNodePairFault(Fault{Rank: 0, Op: 1, Kind: kind}, Options{}, body)
	return err
}

// offNodePairFault is offNodePair with full control over the fault and
// extra options, returning the run's stats for retry/replay assertions.
func offNodePairFault(f Fault, opt Options, body func(*Ctx) error) (Stats, error) {
	opt.Topo = hwtopo.Cluster(2, 1)
	opt.Faults = &FaultPlan{Faults: []Fault{f}}
	if opt.StallTimeout == 0 {
		opt.StallTimeout = 5 * time.Second
	}
	return RunOpt(2, opt, body)
}

func exchangePairBody(c *Ctx) error {
	c.To(1 - c.Rank()).Int64(42)
	for _, m := range c.Exchange() {
		if v := m.Data.Int64(); v != 42 {
			return fmt.Errorf("rank %d decoded %d from rank %d", c.Rank(), v, m.From)
		}
		m.Data.Done()
	}
	return nil
}

func TestFaultCorruptRecoveredByRetry(t *testing.T) {
	// A transient (non-sticky) wire corruption: the receiver's CRC check
	// rejects the frame, the retransmit layer repairs it from the
	// sender's kept copy, and the exchange completes cleanly.
	st, err := offNodePairFault(Fault{Rank: 0, Op: 1, Kind: FaultCorrupt}, Options{}, exchangePairBody)
	if err != nil {
		t.Fatalf("transient corruption should be retried away: %v", err)
	}
	if st.Retries != 1 {
		t.Fatalf("want exactly 1 retried frame, got %d", st.Retries)
	}
}

func TestFaultTruncateRecoveredByRetry(t *testing.T) {
	st, err := offNodePairFault(Fault{Rank: 0, Op: 1, Kind: FaultTruncate}, Options{}, exchangePairBody)
	if err != nil {
		t.Fatalf("transient truncation should be retried away: %v", err)
	}
	if st.Retries != 1 {
		t.Fatalf("want exactly 1 retried frame, got %d", st.Retries)
	}
}

func TestFaultCorruptStickySurfacesStructuredError(t *testing.T) {
	// Sticky corruption damages the retransmits too: the retry budget
	// dies and the failure escalates to the structured fatal error,
	// naming the spent budget.
	st, err := offNodePairFault(
		Fault{Rank: 0, Op: 1, Kind: FaultCorrupt, Sticky: true},
		Options{RetryBackoff: -1}, exchangePairBody)
	if !errors.Is(err, ErrCorruptMessage) {
		t.Fatalf("want ErrCorruptMessage, got %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if ce.From != 0 || ce.To != 1 {
		t.Fatalf("corruption misattributed: %+v", ce)
	}
	if !strings.Contains(ce.Reason, "CRC") {
		t.Fatalf("want CRC reason, got %q", ce.Reason)
	}
	if ce.Retries != DefaultRetryBudget {
		t.Fatalf("want the full budget of %d retransmits spent, got %d", DefaultRetryBudget, ce.Retries)
	}
	if !strings.Contains(ce.Error(), "retransmit") {
		t.Fatalf("error should name the spent retransmits: %v", ce)
	}
	if st.Retries != 0 {
		t.Fatalf("no retransmit succeeded, Stats.Retries should be 0, got %d", st.Retries)
	}
}

func TestFaultTruncateStickySurfacesStructuredError(t *testing.T) {
	_, err := offNodePairFault(
		Fault{Rank: 0, Op: 1, Kind: FaultTruncate, Sticky: true},
		Options{RetryBackoff: -1}, exchangePairBody)
	if !errors.Is(err, ErrCorruptMessage) {
		t.Fatalf("want ErrCorruptMessage, got %v", err)
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncation reason, got %v", err)
	}
}

func TestFaultCorruptFatalWithRetryDisabled(t *testing.T) {
	// RetryBudget < 0 restores the pre-retry contract: every validation
	// failure is immediately fatal, with no retransmits spent.
	_, err := offNodePairFault(
		Fault{Rank: 0, Op: 1, Kind: FaultCorrupt},
		Options{RetryBudget: -1}, exchangePairBody)
	if !errors.Is(err, ErrCorruptMessage) {
		t.Fatalf("want ErrCorruptMessage, got %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if ce.Retries != 0 {
		t.Fatalf("retry layer disabled, want 0 retransmits, got %d", ce.Retries)
	}
}

func TestFaultDuplicateDroppedAsReplay(t *testing.T) {
	// The replayed frame is detected by the sequence check and dropped,
	// like any reliable transport's duplicate suppression: the receiver
	// sees exactly one clean message and the run passes.
	st, err := offNodePairFault(Fault{Rank: 0, Op: 1, Kind: FaultDuplicate}, Options{},
		func(c *Ctx) error {
			c.To(1 - c.Rank()).Int64(42)
			msgs := c.Exchange()
			if len(msgs) != 1 {
				return fmt.Errorf("rank %d: want 1 delivery after duplicate suppression, got %d", c.Rank(), len(msgs))
			}
			if v := msgs[0].Data.Int64(); v != 42 {
				return fmt.Errorf("rank %d decoded %d", c.Rank(), v)
			}
			msgs[0].Data.Done()
			return nil
		})
	if err != nil {
		t.Fatalf("duplicate should be suppressed silently: %v", err)
	}
	if st.Replays != 1 {
		t.Fatalf("want exactly 1 dropped replay, got %d", st.Replays)
	}
}

func TestCorruptReaderPanicsOnAnyUse(t *testing.T) {
	r := failedReader(&CorruptError{From: 1, To: 0, Reason: "test"})
	for name, f := range map[string]func(){
		"Empty":     func() { r.Empty() },
		"Remaining": func() { r.Remaining() },
		"Done":      func() { r.Done() },
		"Byte":      func() { r.Byte() },
		"Int32s":    func() { r.Int32s() },
	} {
		func() {
			defer func() {
				p := recover()
				err, ok := p.(error)
				if !ok || !errors.Is(err, ErrCorruptMessage) {
					t.Errorf("%s: want ErrCorruptMessage panic, got %v", name, p)
				}
			}()
			f()
		}()
	}
}

func TestReaderRejectsHostileLengthPrefix(t *testing.T) {
	for name, tc := range map[string]struct {
		pack   func(b *Buffer)
		decode func(r *Reader)
	}{
		"huge int32s": {
			func(b *Buffer) { b.Int32(1 << 30) },
			func(r *Reader) { r.Int32s() },
		},
		"negative int32s": {
			func(b *Buffer) { b.Int32(-5) },
			func(r *Reader) { r.Int32s() },
		},
		"huge float64s": {
			func(b *Buffer) { b.Int32(1 << 30) },
			func(r *Reader) { r.Float64s() },
		},
		"huge bytes": {
			func(b *Buffer) { b.Int32(1 << 30) },
			func(r *Reader) { r.BytesVal() },
		},
		"negative bytes": {
			func(b *Buffer) { b.Int32(-1) },
			func(r *Reader) { r.BytesVal() },
		},
	} {
		b := &Buffer{}
		tc.pack(b)
		r := NewReader(b.Raw())
		func() {
			defer func() {
				p := recover()
				s, _ := p.(string)
				if !strings.Contains(s, "corrupt length prefix") {
					t.Errorf("%s: want descriptive bounded panic, got %v", name, p)
				}
			}()
			tc.decode(r)
			t.Errorf("%s: decode of hostile prefix did not panic", name)
		}()
	}
}

func TestRandomFaultPlanDeterministic(t *testing.T) {
	a := RandomFaultPlan(7, 8, 20)
	b := RandomFaultPlan(7, 8, 20)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different plans:\n%s\nvs\n%s", a, b)
	}
	if len(a.Faults) == 0 {
		t.Fatal("plan should contain at least one fault")
	}
	for _, f := range a.Faults {
		if f.Rank < 0 || f.Rank >= 8 || f.Op < 1 || f.Op > 20 {
			t.Fatalf("fault out of bounds: %+v", f)
		}
	}
	seen := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		seen[RandomFaultPlan(seed, 8, 20).String()] = true
	}
	if len(seen) < 10 {
		t.Fatalf("20 seeds produced only %d distinct plans", len(seen))
	}
}

func TestAbortAllTearsDownRun(t *testing.T) {
	cause := errors.New("wall-clock timeout exceeded")
	started := make(chan struct{}, 4)
	go func() {
		for i := 0; i < 4; i++ {
			<-started
		}
		time.Sleep(10 * time.Millisecond)
		if n := AbortAll(cause); n != 1 {
			t.Errorf("AbortAll aborted %d runs, want 1", n)
		}
	}()
	_, err := RunOpt(4, Options{StallTimeout: -1}, func(c *Ctx) error {
		started <- struct{}{}
		for {
			c.Barrier()
			time.Sleep(time.Millisecond)
		}
	})
	if !errors.Is(err, cause) {
		t.Fatalf("want abort cause, got %v", err)
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	// A short stall timeout must not fire while ranks make steady
	// progress through many phases.
	_, err := RunOpt(4, Options{StallTimeout: 250 * time.Millisecond}, func(c *Ctx) error {
		for i := 0; i < 50; i++ {
			c.To((c.Rank() + 1) % 4).Int32(int32(i))
			for _, m := range c.Exchange() {
				m.Data.Int32()
				m.Data.Done()
			}
			SumInt64(c, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("healthy run reported error: %v", err)
	}
}
