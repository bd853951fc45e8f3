package pcu

import (
	"errors"
	"fmt"
	"testing"

	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/san"
)

// sanWorkload is a small deterministic mix of collectives and
// exchanges: a ring exchange, reductions and a broadcast.
func sanWorkload(c *Ctx) error {
	c.Barrier()
	right := (c.Rank() + 1) % c.Size()
	b := c.To(right)
	b.Int64(int64(c.Rank() * 100))
	msgs := c.Exchange()
	for _, m := range msgs {
		v := m.Data.Int64()
		m.Data.Done()
		if err := m.Data.Err(); err != nil {
			return err
		}
		if v != int64(m.From*100) {
			return fmt.Errorf("rank %d: got %d from %d", c.Rank(), v, m.From)
		}
	}
	if sum := SumInt64(c, 1); sum != int64(c.Size()) {
		return fmt.Errorf("sum %d", sum)
	}
	if root := Bcast(c, 0, c.Rank()); root != 0 {
		return fmt.Errorf("bcast %d", root)
	}
	return nil
}

// TestSanitizeCleanRun: a uniform schedule passes the cross-check and
// yields a nonzero trace hash.
func TestSanitizeCleanRun(t *testing.T) {
	stats, err := RunOpt(4, Options{Sanitize: true}, sanWorkload)
	if err != nil {
		t.Fatalf("sanitized run failed: %v", err)
	}
	if stats.SanHash == 0 {
		t.Fatal("sanitized run reported no trace hash")
	}
}

// TestSanitizeDivergence: ranks entering different collectives at the
// same sync point must fail with a *san.DivergenceError naming the
// first mismatching op on both sides.
func TestSanitizeDivergence(t *testing.T) {
	_, err := RunOpt(2, Options{Sanitize: true}, func(c *Ctx) error {
		c.Barrier() // op 0: uniform
		//pumi-vet:ignore collseq // deliberate divergence: the sanitizer must catch it
		if c.Rank() == 0 {
			c.Barrier() // op 1: rank 0 enters barrier...
		} else {
			SumInt64(c, 1) // ...while rank 1 enters allreduce
		}
		return nil
	})
	if err == nil {
		t.Fatal("divergent schedule passed the sanitizer")
	}
	if !errors.Is(err, san.ErrDivergence) {
		t.Fatalf("error does not match san.ErrDivergence: %v", err)
	}
	var div *san.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("error carries no *san.DivergenceError: %v", err)
	}
	if div.Index != 1 {
		t.Fatalf("first mismatch at op %d, want 1: %v", div.Index, div)
	}
	ops := map[string]bool{div.Op: true, div.PeerOp: true}
	if !ops["barrier"] || !ops["allreduce"] {
		t.Fatalf("mismatching ops %q vs %q, want barrier vs allreduce", div.Op, div.PeerOp)
	}
}

// TestSanitizeDivergenceDeterministic: the divergence diagnosis is a
// deterministic function of the schedule — a rerun produces the
// identical error text, so seeded replays are debuggable.
func TestSanitizeDivergenceDeterministic(t *testing.T) {
	run := func() string {
		_, err := RunOpt(3, Options{Sanitize: true}, func(c *Ctx) error {
			SumInt64(c, 1)
			//pumi-vet:ignore collseq // deliberate divergence: the sanitizer must catch it
			if c.Rank() == 2 {
				c.Barrier()
			} else {
				Bcast(c, 0, 7)
			}
			return nil
		})
		if err == nil {
			t.Fatal("divergent schedule passed the sanitizer")
		}
		return err.Error()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("divergence diagnosis not reproducible:\n  %s\n  %s", a, b)
	}
}

// TestSanitizeIdenticalHashes: two identically-seeded runs produce
// identical op-sequence trace hashes, and the hash is sensitive to
// schedule and payload changes.
func TestSanitizeIdenticalHashes(t *testing.T) {
	topo := hwtopo.Cluster(2, 2)
	run := func(body func(*Ctx) error) uint64 {
		stats, err := RunOpt(4, Options{Topo: topo, Sanitize: true}, body)
		if err != nil {
			t.Fatalf("sanitized run failed: %v", err)
		}
		return stats.SanHash
	}
	a, b := run(sanWorkload), run(sanWorkload)
	if a != b || a == 0 {
		t.Fatalf("identical workloads hash %#x vs %#x", a, b)
	}
	// A different schedule changes the hash.
	other := run(func(c *Ctx) error { c.Barrier(); return nil })
	if other == a {
		t.Fatal("different schedule kept the same trace hash")
	}
	// Same schedule, different payload bytes: the trace (not the
	// schedule) hash must catch it — this is the runtime signature of
	// map-order nondeterminism in packed messages.
	payload := func(v int64) func(*Ctx) error {
		return func(c *Ctx) error {
			c.To((c.Rank() + 1) % c.Size()).Int64(v)
			msgs := c.Exchange()
			for _, m := range msgs {
				m.Data.Int64()
				m.Data.Done()
				if err := m.Data.Err(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	p1, p2 := run(payload(1)), run(payload(2))
	if p1 == p2 {
		t.Fatal("payload change kept the same trace hash")
	}
}

// TestSanitizeUnsanitizedUnchanged: without Sanitize the run reports no
// hash and keeps its op count (the sanitizer adds no collectives).
func TestSanitizeUnsanitizedUnchanged(t *testing.T) {
	plain, err := RunOpt(4, Options{}, sanWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SanHash != 0 {
		t.Fatalf("unsanitized run reported trace hash %#x", plain.SanHash)
	}
	sanitized, err := RunOpt(4, Options{Sanitize: true}, sanWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if sanitized.Collectives != plain.Collectives {
		t.Fatalf("sanitizer changed the collective count: %d vs %d",
			sanitized.Collectives, plain.Collectives)
	}
}

// TestSanSummaryLedger: the process-wide ledger folds clean sanitized
// runs deterministically and skips failed ones.
func TestSanSummaryLedger(t *testing.T) {
	session := func() (int64, uint64) {
		ResetSanSummary()
		for i := 0; i < 2; i++ {
			if _, err := RunOpt(4, Options{Sanitize: true}, sanWorkload); err != nil {
				t.Fatal(err)
			}
		}
		// A failed run must not pollute the ledger.
		if _, err := RunOpt(2, Options{Sanitize: true}, func(c *Ctx) error {
			//pumi-vet:ignore collseq // deliberate divergence: the sanitizer must catch it
			if c.Rank() == 0 {
				c.Barrier() // deliberate divergence
			} else {
				SumInt64(c, 1)
			}
			return nil
		}); err == nil {
			t.Fatal("divergent run passed")
		}
		return SanSummary()
	}
	runsA, hashA := session()
	runsB, hashB := session()
	if runsA != 2 {
		t.Fatalf("ledger counted %d clean runs, want 2", runsA)
	}
	if runsA != runsB || hashA != hashB || hashA == 0 {
		t.Fatalf("ledger not reproducible: (%d, %#x) vs (%d, %#x)", runsA, hashA, runsB, hashB)
	}
}

// TestSanEnableSanitizesRuns: the process-wide switch sanitizes runs
// that did not opt in via Options.
func TestSanEnableSanitizesRuns(t *testing.T) {
	san.Enable()
	defer san.Disable()
	stats, err := RunOpt(2, Options{}, sanWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SanHash == 0 {
		t.Fatal("san.Enable()d run reported no trace hash")
	}
}
