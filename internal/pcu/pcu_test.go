package pcu

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/fastmath/pumi-go/internal/hwtopo"
)

func TestRunBasics(t *testing.T) {
	var visited atomic.Int64
	err := Run(7, func(c *Ctx) error {
		if c.Size() != 7 {
			return fmt.Errorf("size = %d", c.Size())
		}
		visited.Add(1 << uint(c.Rank()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited.Load() != 1<<7-1 {
		t.Fatalf("ranks visited bitmap = %b", visited.Load())
	}
}

func TestRunRejectsBadCounts(t *testing.T) {
	if err := Run(0, func(*Ctx) error { return nil }); err == nil {
		t.Fatal("0 ranks accepted")
	}
	if _, err := RunOn(5, hwtopo.Cluster(1, 4), func(*Ctx) error { return nil }); err == nil {
		t.Fatal("ranks exceeding topology accepted")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	err := Run(3, func(c *Ctx) error {
		if c.Rank() == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunReportsAgreedErrorOnce: an error every rank returns in the same
// words (the outcome of a collective vote) is one line of the result;
// errors that differ all show.
func TestRunReportsAgreedErrorOnce(t *testing.T) {
	err := Run(3, func(c *Ctx) error { return errors.New("vote: rank 1: boom") })
	if err == nil || err.Error() != "vote: rank 1: boom" {
		t.Fatalf("agreed error: %q", err)
	}
	err = Run(3, func(c *Ctx) error { return fmt.Errorf("rank %d failed", c.Rank()) })
	if err == nil || strings.Count(err.Error(), "\n") != 2 {
		t.Fatalf("distinct errors: %q", err)
	}
}

func TestRunPanicDoesNotDeadlock(t *testing.T) {
	err := Run(4, func(c *Ctx) error {
		//pumi-vet:ignore collseq // deliberate divergence: panic poisoning must unblock peers
		if c.Rank() == 2 {
			panic("dead rank")
		}
		c.Barrier() // would deadlock without poisoning
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "dead rank") {
		t.Fatalf("err = %v", err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	const n = 8
	var phase atomic.Int64
	err := Run(n, func(c *Ctx) error {
		for i := 0; i < 50; i++ {
			phase.Add(1)
			c.Barrier()
			if got := phase.Load(); got != int64((i+1)*n) {
				return fmt.Errorf("iter %d: phase=%d", i, got)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceAndFriends(t *testing.T) {
	err := Run(6, func(c *Ctx) error {
		r := int64(c.Rank())
		if s := SumInt64(c, r); s != 15 {
			return fmt.Errorf("sum = %d", s)
		}
		if m := MaxInt64(c, r); m != 5 {
			return fmt.Errorf("max = %d", m)
		}
		if m := MinInt64(c, 10-r); m != 5 {
			return fmt.Errorf("min = %d", m)
		}
		if s := SumFloat64(c, 0.5); s != 3.0 {
			return fmt.Errorf("fsum = %g", s)
		}
		if m := MaxFloat64(c, float64(c.Rank())); m != 5.0 {
			return fmt.Errorf("fmax = %g", m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastReduceGatherScan(t *testing.T) {
	err := Run(5, func(c *Ctx) error {
		v := Bcast(c, 2, c.Rank()*100)
		if v != 200 {
			return fmt.Errorf("bcast = %d", v)
		}
		sum := Reduce(c, 0, int64(1), func(a, b int64) int64 { return a + b })
		//pumi-vet:ignore collseq // assertion failure ends the run; poisoning unblocks peers
		if c.Rank() == 0 && sum != 5 {
			return fmt.Errorf("reduce = %d", sum)
		}
		all := Allgather(c, c.Rank()*c.Rank())
		want := []int{0, 1, 4, 9, 16}
		if !slices.Equal(all, want) {
			return fmt.Errorf("allgather = %v", all)
		}
		// Exclusive prefix sum of ones is the rank itself.
		if p := ExscanInt64(c, 1); p != int64(c.Rank()) {
			return fmt.Errorf("exscan = %d", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeRing(t *testing.T) {
	const n = 9
	err := Run(n, func(c *Ctx) error {
		next := (c.Rank() + 1) % n
		c.To(next).Int32(int32(c.Rank()))
		msgs := c.Exchange()
		if len(msgs) != 1 {
			return fmt.Errorf("got %d messages", len(msgs))
		}
		prev := (c.Rank() + n - 1) % n
		if msgs[0].From != prev {
			return fmt.Errorf("from = %d, want %d", msgs[0].From, prev)
		}
		if v := msgs[0].Data.Int32(); v != int32(prev) {
			return fmt.Errorf("payload = %d", v)
		}
		if !msgs[0].Data.Empty() {
			return errors.New("leftover bytes")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeAllToAllSortedAndPhased(t *testing.T) {
	const n = 6
	err := Run(n, func(c *Ctx) error {
		for phase := 0; phase < 4; phase++ {
			for p := 0; p < n; p++ {
				c.To(p).Int32(int32(c.Rank()*1000 + phase))
			}
			msgs := c.Exchange()
			if len(msgs) != n {
				return fmt.Errorf("phase %d: %d messages", phase, len(msgs))
			}
			for i, m := range msgs {
				if m.From != i {
					return fmt.Errorf("messages not sorted by sender: %d at %d", m.From, i)
				}
				if v := m.Data.Int32(); v != int32(i*1000+phase) {
					return fmt.Errorf("phase mixing: got %d", v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeEmptyPhase(t *testing.T) {
	err := Run(4, func(c *Ctx) error {
		// A rank that packs nothing still participates.
		if c.Rank() == 0 {
			c.To(3).Byte(7)
		}
		msgs := c.Exchange()
		if c.Rank() == 3 {
			if len(msgs) != 1 || msgs[0].Data.Byte() != 7 {
				return errors.New("rank 3 missed the message")
			}
		} else if len(msgs) != 0 {
			return fmt.Errorf("rank %d got %d messages", c.Rank(), len(msgs))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeSelfMessage(t *testing.T) {
	err := Run(2, func(c *Ctx) error {
		c.To(c.Rank()).Int64(int64(c.Rank()) + 10)
		msgs := c.Exchange()
		if len(msgs) != 1 || msgs[0].From != c.Rank() {
			return fmt.Errorf("self message missing: %v", msgs)
		}
		if v := msgs[0].Data.Int64(); v != int64(c.Rank())+10 {
			return fmt.Errorf("self payload = %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTopologyAwareStats(t *testing.T) {
	// 2 nodes x 2 cores: ranks 0,1 on node 0; ranks 2,3 on node 1.
	topo := hwtopo.Cluster(2, 2)
	stats, err := RunOn(4, topo, func(c *Ctx) error {
		//pumi-vet:ignore collseq // assertion failure ends the run; poisoning unblocks peers
		if c.Rank() == 0 {
			if !c.SameNode(1) || c.SameNode(2) {
				return errors.New("SameNode wrong")
			}
			if got := c.NodePeers(); !slices.Equal(got, []int{0, 1}) {
				return fmt.Errorf("NodePeers = %v", got)
			}
		}
		c.To(1).Int32(1) // on-node for 0, off-node for 2,3
		c.Exchange()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Senders 0 and 1 are on node 0 with peer 1; senders 2,3 are off-node.
	if stats.OnNodeMsgs != 2 || stats.OffNodeMsgs != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.OnNodeBytes != 8 || stats.OffNodeBytes != 8 {
		t.Fatalf("byte stats = %+v", stats)
	}
}

func TestBufferReaderRoundTrip(t *testing.T) {
	var b Buffer
	b.Byte(9)
	b.Int32(-5)
	b.Int64(1 << 40)
	b.Float64(3.25)
	b.Bytes([]byte("hi"))
	b.Int32s([]int32{1, -2, 3})
	b.Float64s([]float64{0.5, -0.5})
	r := NewReader(b.buf)
	if r.Byte() != 9 || r.Int32() != -5 || r.Int64() != 1<<40 || r.Float64() != 3.25 {
		t.Fatal("scalar round trip failed")
	}
	if string(r.BytesVal()) != "hi" {
		t.Fatal("bytes round trip failed")
	}
	if !slices.Equal(r.Int32s(), []int32{1, -2, 3}) {
		t.Fatal("int32s round trip failed")
	}
	if !slices.Equal(r.Float64s(), []float64{0.5, -0.5}) {
		t.Fatal("float64s round trip failed")
	}
	if !r.Empty() {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestReaderUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	NewReader([]byte{1, 2}).Int32()
}

func TestBufferSealedAfterExchange(t *testing.T) {
	err := Run(2, func(c *Ctx) error {
		b := c.To(1 - c.Rank())
		b.Int32(1)
		c.Exchange()
		defer func() {
			if recover() == nil {
				panic("stale buffer write did not panic")
			}
		}()
		b.Int32(2) // must panic: the phase's Exchange delivered this buffer
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBufferGrow pins Grow as a pure reservation: the packed bytes are
// the same with and without it, packing into the reserved room does not
// move the array, Grow(0) on a buffer that never packed allocates
// nothing, and a delivered buffer refuses it like any pack call.
func TestBufferGrow(t *testing.T) {
	pack := func(b *Buffer) {
		b.Byte(9)
		b.Int32(-5)
		b.Int64s([]int64{1, 1 << 40, -3})
		b.Bytes([]byte("payload"))
	}
	var plain, grown Buffer
	pack(&plain)
	grown.Grow(plain.Len())
	reserved := cap(grown.buf)
	pack(&grown)
	if !slices.Equal(plain.Raw(), grown.Raw()) {
		t.Fatalf("bytes differ: % x without Grow, % x with", plain.Raw(), grown.Raw())
	}
	if reserved < plain.Len() || cap(grown.buf) != reserved {
		t.Fatalf("Grow(%d) reserved %d bytes, %d after packing", plain.Len(), reserved, cap(grown.buf))
	}
	var empty Buffer
	if n := testing.AllocsPerRun(10, func() { empty.Grow(0) }); n != 0 || empty.buf != nil {
		t.Fatalf("Grow(0) on a nil buffer: %v allocations, array %v", n, empty.buf)
	}
	err := Run(2, func(c *Ctx) error {
		b := c.To(1 - c.Rank())
		b.Int32(1)
		c.Exchange()
		defer func() {
			if recover() == nil {
				panic("Grow on a delivered buffer did not panic")
			}
		}()
		b.Grow(8)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Stats must be safe to read from any rank while other ranks are
// mid-delivery; run it under -race with heavy concurrent traffic.
func TestStatsDuringTrafficRace(t *testing.T) {
	const n = 8
	topo := hwtopo.Cluster(2, 4) // both on-node and off-node paths
	_, err := RunOn(n, topo, func(c *Ctx) error {
		for phase := 0; phase < 20; phase++ {
			for p := 0; p < n; p++ {
				c.To(p).Int64(int64(phase))
			}
			s := c.Stats() // concurrent with peers' inbox appends
			if s.OnNodeMsgs < 0 || s.OffNodeMsgs < 0 {
				return errors.New("negative counter")
			}
			for _, m := range c.Exchange() {
				m.Data.Int64()
				m.Data.Done()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackToInvalidPeerPanics(t *testing.T) {
	err := Run(2, func(c *Ctx) error {
		if c.Rank() == 0 {
			c.To(5)
		}
		c.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "invalid peer") {
		t.Fatalf("err = %v", err)
	}
}

// Property: Allreduce with any associative-commutative op over random
// per-rank values agrees with the serial fold on every rank.
func TestAllreduceProperty(t *testing.T) {
	f := func(vals []int32) bool {
		n := len(vals)
		if n == 0 || n > 12 {
			return true
		}
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		okAll := true
		err := Run(n, func(c *Ctx) error {
			got := SumInt64(c, int64(vals[c.Rank()]))
			if got != want {
				okAll = false
			}
			return nil
		})
		return err == nil && okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: random sparse exchanges deliver exactly what was sent —
// every payload arrives at its addressee, intact, exactly once.
func TestExchangeDeliveryProperty(t *testing.T) {
	f := func(seed uint32) bool {
		const n = 5
		ok := true
		err := Run(n, func(c *Ctx) error {
			rng := uint64(seed) + uint64(c.Rank())*0x9e3779b9 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			// Each rank sends 0..3 messages to random peers carrying
			// (from, to, nonce); receivers verify.
			type sent struct{ to, nonce int64 }
			var mine []sent
			k := int(next() % 4)
			for i := 0; i < k; i++ {
				to := int(next() % n)
				nonce := int64(next())
				b := c.To(to)
				b.Int64(int64(c.Rank()))
				b.Int64(int64(to))
				b.Int64(nonce)
				mine = append(mine, sent{to: int64(to), nonce: nonce})
			}
			msgs := c.Exchange()
			count := 0
			for _, m := range msgs {
				for !m.Data.Empty() {
					from := m.Data.Int64()
					to := m.Data.Int64()
					m.Data.Int64() // nonce
					if from != int64(m.From) || to != int64(c.Rank()) {
						return errBadDelivery
					}
					count++
				}
			}
			// Conservation: total sent == total received.
			sentN := SumInt64(c, int64(len(mine)))
			recvN := SumInt64(c, int64(count))
			if sentN != recvN {
				return errBadDelivery
			}
			return nil
		})
		if err != nil {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

var errBadDelivery = errors.New("pcu: bad delivery")

func TestGenericCollectivesWithStructs(t *testing.T) {
	type stats struct {
		Min, Max int
	}
	err := Run(5, func(c *Ctx) error {
		v := stats{Min: c.Rank(), Max: c.Rank()}
		all := Allreduce(c, v, func(a, b stats) stats {
			if b.Min < a.Min {
				a.Min = b.Min
			}
			if b.Max > a.Max {
				a.Max = b.Max
			}
			return a
		})
		if all.Min != 0 || all.Max != 4 {
			return fmt.Errorf("allreduce struct = %+v", all)
		}
		got := Bcast(c, 3, []int{c.Rank()})
		if len(got) != 1 || got[0] != 3 {
			return fmt.Errorf("bcast slice = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
