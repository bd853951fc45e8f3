package experiments

import (
	"bytes"
	"fmt"
	"time"

	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// HybridConfig scales the two-level communication study (§II-D: hybrid
// multi-threaded/MPI communication tested with up to 32 communicating
// threads on one Blue Gene/Q node).
type HybridConfig struct {
	// MaxWorkers is the largest rank count tested (paper: 32).
	MaxWorkers int
	// MsgBytes is the payload per neighbor message.
	MsgBytes int
	// Phases is the number of neighbor-exchange phases per measurement.
	Phases int
}

// DefaultHybridConfig mirrors the paper's 2..32 sweep.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{MaxWorkers: 32, MsgBytes: 256 << 10, Phases: 30}
}

// HybridPoint is one row of the sweep: the same neighbor-exchange
// workload run with all ranks sharing one node (on-node, by-reference
// message delivery) versus each rank on its own node (off-node,
// serialized copies).
type HybridPoint struct {
	Workers       int
	OnNodeSecs    float64
	OffNodeSecs   float64
	OnNodeBytes   int64
	OffNodeBytes  int64
	SpeedupOnNode float64 // OffNodeSecs / OnNodeSecs
}

// RunHybrid measures ring neighbor exchanges under the two placements
// for worker counts 2, 4, ..., MaxWorkers.
func RunHybrid(cfg HybridConfig) ([]HybridPoint, error) {
	var out []HybridPoint
	for w := 2; w <= cfg.MaxWorkers; w *= 2 {
		on, onStats, err := timedExchange(w, hwtopo.Cluster(1, w), cfg)
		if err != nil {
			return nil, err
		}
		off, offStats, err := timedExchange(w, hwtopo.Cluster(w, 1), cfg)
		if err != nil {
			return nil, err
		}
		pt := HybridPoint{
			Workers:      w,
			OnNodeSecs:   on,
			OffNodeSecs:  off,
			OnNodeBytes:  onStats.OnNodeBytes,
			OffNodeBytes: offStats.OffNodeBytes,
		}
		if on > 0 {
			pt.SpeedupOnNode = off / on
		}
		out = append(out, pt)
	}
	return out, nil
}

func timedExchange(workers int, topo hwtopo.Topology, cfg HybridConfig) (float64, pcu.Stats, error) {
	payload := make([]byte, cfg.MsgBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	var secs float64
	stats, err := pcu.RunOn(workers, topo, func(ctx *pcu.Ctx) error {
		next := (ctx.Rank() + 1) % ctx.Size()
		prev := (ctx.Rank() + ctx.Size() - 1) % ctx.Size()
		// Warm up the allocator and scheduler before timing.
		for p := 0; p < 5; p++ {
			ctx.To(next).Bytes(payload)
			ctx.To(prev).Bytes(payload)
			ctx.Exchange()
		}
		ctx.Barrier()
		start := time.Now()
		for p := 0; p < cfg.Phases; p++ {
			ctx.To(next).Bytes(payload)
			ctx.To(prev).Bytes(payload)
			msgs := ctx.Exchange()
			// On a 2-rank ring both sends target the same peer and
			// arrive as one message with two payloads.
			got := 0
			for _, m := range msgs {
				for !m.Data.Empty() {
					b := m.Data.BytesNoCopy()
					if len(b) != cfg.MsgBytes {
						return fmt.Errorf("hybrid: short message %d", len(b))
					}
					got++
				}
			}
			if got != 2 {
				return fmt.Errorf("hybrid: got %d payloads", got)
			}
		}
		d := time.Since(start).Seconds()
		if ctx.Rank() == 0 {
			secs = d
		}
		return nil
	})
	return secs, stats, err
}

// FormatHybrid renders the sweep.
func FormatHybrid(points []HybridPoint) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%8s %14s %14s %12s\n", "workers", "on-node (s)", "off-node (s)", "off/on")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %14.6f %14.6f %12.2f\n",
			p.Workers, p.OnNodeSecs, p.OffNodeSecs, p.SpeedupOnNode)
	}
	return b.String()
}
