package pipeline

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// The two end-to-end timings are reported in reference seconds: each
// sample's wall-clock, divided by how long a fixed kernel took right
// before and after it, times the kernel's nominal duration. On the box
// this was built on, the same binary's wall-clock drifts by 10-20 %
// over minutes (other tenants on the host), more than any bound a
// regression check could use; the kernel drifts with it, and in paired
// sets of runs the quotient moved a third as much. A change in the
// library moves the wall-clock and not the kernel, so it shows in full.
// The raw wall-clock and the machine factor are reported next to it.

// referenceNominal is the kernel's duration on that box when quiet:
// with the machine at that speed, reference seconds are seconds.
const referenceNominal = 0.015

// referenceSeconds converts a wall-clock sample given the kernel's
// duration measured around it.
func referenceSeconds(wall, kernel float64) float64 {
	if kernel <= 0 {
		return wall
	}
	return wall * referenceNominal / kernel
}

// refScratch is one rank's memory for the reference kernel, allocated
// once: the kernel itself must not allocate, or its duration would
// depend on the state of the collector and the size of the live heap.
type refScratch struct {
	ids  map[int64]int32
	keys []int64
}

const refKeys = 1 << 17

func newRefScratch() *refScratch {
	s := &refScratch{ids: make(map[int64]int32, refKeys), keys: make([]int64, 0, refKeys)}
	s.run() // grows the map to its final size
	return s
}

// run is the reference kernel: a fixed piece of work shaped like the
// library's own — inserts and lookups in a map keyed by 64-bit ids that
// does not fit the core's private caches, slice appends, a sort. The
// harness times it on every rank at once, next to each set-up and cycle;
// it never touches the library.
func (s *refScratch) run() int64 {
	clear(s.ids)
	s.keys = s.keys[:0]
	x := uint64(88172645463325252)
	for i := 0; i < 3*refKeys/2; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int64(x % refKeys)
		s.ids[k] += int32(i)
		if i%4 == 0 {
			s.keys = append(s.keys, k)
		}
	}
	slices.Sort(s.keys)
	var sum int64
	for _, k := range s.keys {
		sum += int64(s.ids[k])
	}
	return sum
}

// reference returns how long the kernel takes right now, in seconds on
// rank 0's clock: every rank runs it at once, barrier to barrier, after a
// collection, so that no marking left over from the work just done runs
// beside it. The reading is the fastest of three runs, which drops a
// short disturbance and keeps a slow phase. It is reused while nothing
// has run since it was taken.
func (h *harness) reference() float64 {
	if h.refFresh {
		return h.lastRef
	}
	h.barrier()
	if h.rank0() {
		runtime.GC()
	}
	runs := 3
	if h.cfg.Quick {
		runs = 1
	}
	best := math.Inf(1)
	for i := 0; i < runs; i++ {
		h.barrier()
		start := time.Now()
		h.refSink += h.scratch.run()
		h.barrier()
		best = min(best, time.Since(start).Seconds())
	}
	h.lastRef, h.refFresh = best, true
	return best
}
