package pcu

import (
	"testing"
	"time"

	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/trace"
)

// Micro-benchmarks for the PCU hot paths: bulk pack/decode kernels
// against their element-wise equivalents, and the phased exchange under
// on-node (by-reference delivery) and off-node (copying delivery)
// topologies. Runnable with benchstat (`make bench-go`):
//
//	go test -run=^$ -bench=. -count=10 ./internal/pcu | benchstat -
//
// End-to-end numbers come from the pipeline benchmark under bench/.

const (
	benchPackN   = 4096
	benchRanks   = 8
	benchPayload = 1024
)

func benchInt32s(n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(i * 3)
	}
	return v
}

func benchFloat64s(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i) * 1.25
	}
	return v
}

// BenchmarkPackInt32s compares the bulk Int32s kernel against packing
// the same length-prefixed slice one element at a time (the pre-bulk
// wire loop; the encodings are byte-identical).
func BenchmarkPackInt32s(b *testing.B) {
	vals := benchInt32s(benchPackN)
	b.Run("bulk", func(b *testing.B) {
		var buf Buffer
		b.ReportAllocs()
		b.SetBytes(4 + 4*benchPackN)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			buf.Int32s(vals)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		var buf Buffer
		b.ReportAllocs()
		b.SetBytes(4 + 4*benchPackN)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			buf.Int32(int32(len(vals)))
			for _, v := range vals {
				buf.Int32(v)
			}
		}
	})
}

// BenchmarkPackFloat64s is the float flavor of BenchmarkPackInt32s.
func BenchmarkPackFloat64s(b *testing.B) {
	vals := benchFloat64s(benchPackN)
	b.Run("bulk", func(b *testing.B) {
		var buf Buffer
		b.ReportAllocs()
		b.SetBytes(4 + 8*benchPackN)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			buf.Float64s(vals)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		var buf Buffer
		b.ReportAllocs()
		b.SetBytes(4 + 8*benchPackN)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			buf.Int32(int32(len(vals)))
			for _, v := range vals {
				buf.Float64(v)
			}
		}
	})
}

// BenchmarkUnpackInt32s compares bulk decode (into a reused scratch
// slice, the zero-alloc path) against element-wise decode.
func BenchmarkUnpackInt32s(b *testing.B) {
	var src Buffer
	src.Int32s(benchInt32s(benchPackN))
	raw := src.Raw()
	b.Run("bulk", func(b *testing.B) {
		scratch := make([]int32, 0, benchPackN)
		var r Reader
		b.ReportAllocs()
		b.SetBytes(4 + 4*benchPackN)
		for i := 0; i < b.N; i++ {
			r.Reset(raw)
			scratch = r.AppendInt32s(scratch[:0])
			r.Done()
		}
	})
	b.Run("scalar", func(b *testing.B) {
		scratch := make([]int32, 0, benchPackN)
		var r Reader
		b.ReportAllocs()
		b.SetBytes(4 + 4*benchPackN)
		for i := 0; i < b.N; i++ {
			r.Reset(raw)
			n := int(r.Int32())
			scratch = scratch[:0]
			for j := 0; j < n; j++ {
				scratch = append(scratch, r.Int32())
			}
			r.Done()
		}
	})
}

// benchExchangeOnce runs b.N phases on every rank: each rank sends a
// fixed payload around a ring (sparse) or to every rank including
// itself (dense) and drains its inbox with the zero-copy decode path.
// One op is one full phase across all ranks. opt arms the observers
// whose overhead a sub-benchmark measures; topology and stall timeout
// are set here.
func benchExchangeOnce(b *testing.B, topo hwtopo.Topology, dense bool, opt Options) {
	payload := make([]byte, benchPayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	opt.Topo, opt.StallTimeout = topo, -1
	b.ReportAllocs()
	_, err := RunOpt(benchRanks, opt, func(c *Ctx) error {
		for i := 0; i < b.N; i++ {
			if dense {
				for p := 0; p < c.Size(); p++ {
					c.To(p).Bytes(payload)
				}
			} else {
				c.To((c.Rank() + 1) % c.Size()).Bytes(payload)
			}
			for _, m := range c.Exchange() {
				_ = m.Data.BytesNoCopy()
				m.Data.Done()
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExchangeSparse: ring traffic, the neighbor-bounded pattern
// of mesh communication. on-node delivers by reference; off-node
// places every rank on its own node so each message is framed, CRC'd
// and copied. The traced row is the on-node workload with the flight
// recorder armed — the one observer of blocking ops — so its overhead
// reads off against on-node.
func BenchmarkExchangeSparse(b *testing.B) {
	onNode := hwtopo.Cluster(1, benchRanks)
	b.Run("on-node", func(b *testing.B) {
		benchExchangeOnce(b, onNode, false, Options{})
	})
	b.Run("off-node", func(b *testing.B) {
		benchExchangeOnce(b, hwtopo.Cluster(benchRanks, 1), false, Options{})
	})
	b.Run("traced", func(b *testing.B) {
		benchExchangeOnce(b, onNode, false, Options{Trace: trace.New(benchRanks)})
	})
}

// BenchmarkExchangeDense: all-to-all including self, the worst case
// for the active-peer table.
func BenchmarkExchangeDense(b *testing.B) {
	b.Run("on-node", func(b *testing.B) {
		benchExchangeOnce(b, hwtopo.Cluster(1, benchRanks), true, Options{})
	})
	b.Run("off-node", func(b *testing.B) {
		benchExchangeOnce(b, hwtopo.Cluster(benchRanks, 1), true, Options{})
	})
}

// BenchmarkCount exercises the event-counter fast path from every rank
// at once.
func BenchmarkCount(b *testing.B) {
	b.ReportAllocs()
	RunOpt(benchRanks, Options{StallTimeout: -1}, func(c *Ctx) error {
		for i := 0; i < b.N; i++ {
			c.Count("bench.count", 1)
		}
		return nil
	})
}

// BenchmarkSpan is the always-on cost of one stage span with nothing
// armed: two clock reads, a map hit and the histogram's atomic adds.
func BenchmarkSpan(b *testing.B) {
	b.ReportAllocs()
	RunOpt(benchRanks, Options{StallTimeout: -1}, func(c *Ctx) error {
		for i := 0; i < b.N; i++ {
			c.Span("bench.span").End()
		}
		return nil
	})
}

// busy spins for d, standing in for a rank's compute between sync
// points (a sleep would add a timer wake-up of its own).
func busy(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// BenchmarkBarrierSkew: 2 on-node ranks take turns arriving late at a
// Barrier by the given skew, and both compute 30 µs after it. A skew
// inside the barrier's spin budget is absorbed without a park; a skew
// past it parks as before.
func BenchmarkBarrierSkew(b *testing.B) {
	for _, skew := range []time.Duration{5 * time.Microsecond, 20 * time.Microsecond, 200 * time.Microsecond} {
		b.Run(skew.String(), func(b *testing.B) {
			b.ReportAllocs()
			_, err := RunOpt(2, Options{Topo: hwtopo.Cluster(1, 2), StallTimeout: -1}, func(c *Ctx) error {
				for i := 0; i < b.N; i++ {
					if i%2 == c.Rank() {
						busy(skew)
					}
					c.Barrier()
					busy(30 * time.Microsecond)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkBarrierOversubscribed: 16 ranks, more than the processors
// of most test machines, so the barrier parks at once. An op is one
// SumInt64 plus one ring Exchange.
func BenchmarkBarrierOversubscribed(b *testing.B) {
	b.ReportAllocs()
	_, err := RunOpt(16, Options{StallTimeout: -1}, func(c *Ctx) error {
		for i := 0; i < b.N; i++ {
			SumInt64(c, 1)
			c.To((c.Rank() + 1) % c.Size()).Int32(int32(i))
			for _, m := range c.Exchange() {
				_ = m.Data.Int32()
				m.Data.Done()
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
