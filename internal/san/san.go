// Package san implements pumi-san, the runtime determinism and
// ownership sanitizer. It is the dynamic half of the invariant tooling
// whose static half is pumi-vet (internal/lint): where the analyzers
// prove properties of the source, san keeps per-rank shadow state
// during a run.
//
// It keeps two kinds of state:
//
//   - A run-to-run determinism fingerprint. Each rank's OpLog folds its
//     op sequence and exchange payloads into a rolling FNV-1a trace
//     hash; two runs of the same seeded workload must produce the same
//     hashes, so map-order nondeterminism that reaches a send shows as
//     a differing hash. (That all ranks enter the same op is checked by
//     the PCU barrier on every run, sanitized or not.)
//
//   - Owner-only writes and goroutine confinement of mesh state. A
//     shared or ghost entity may only be mutated by the part that owns
//     it, a mesh only by the goroutine that owns the part, and only
//     through a handle to a live entity. MeshGuard checks all three
//     and turns the first violation into an *OwnershipError, with
//     Suspend windows for the sanctioned non-owner writes (migration
//     unpack/restitch, owner-to-copy synchronization).
//
// The package has no dependencies inside the module so that both the
// PCU runtime and the mesh layer can use it without import cycles.
package san

import (
	"errors"
	"runtime"
	"strconv"
	"sync/atomic"
)

// enabled is the process-wide switch read by the layers that attach
// sanitizer state (pcu.RunOpt, partition part construction). Tools flip
// it with a -san flag; tests flip it around a scope.
var enabled atomic.Bool

// Enable turns the sanitizer on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns the sanitizer off process-wide.
func Disable() { enabled.Store(false) }

// Enabled reports whether the sanitizer is on.
func Enabled() bool { return enabled.Load() }

// ErrOwnership is matched by every *OwnershipError, which carries the
// diagnosis.
var ErrOwnership = errors.New("pumi-san: illegal mesh entity write")

// FNV-1a parameters, shared by the trace hash and the run ledger.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// HashDetail folds one value into a detail hash; use DetailSeed as the
// initial accumulator. Callers use it to summarize an op's payload
// shape (e.g. exchange destinations and byte counts) into the detail
// OpLog.Record folds in.
func HashDetail(h, v uint64) uint64 { return fnvUint64(h, v) }

// HashBytes folds a byte slice (length then contents) into a detail
// hash, so payload reorderings — the runtime signature of map-order
// nondeterminism — change the trace even when sizes match.
func HashBytes(h uint64, b []byte) uint64 {
	h = fnvUint64(h, uint64(len(b)))
	for _, c := range b {
		h = fnvByte(h, c)
	}
	return h
}

// DetailSeed is the initial accumulator for HashDetail chains.
const DetailSeed = uint64(fnvOffset)

// Fold combines a completed run's hash into a cumulative ledger hash.
func Fold(acc, h uint64) uint64 {
	if acc == 0 {
		acc = fnvOffset
	}
	return fnvUint64(acc, h)
}

// OpLog is one rank's trace hash: its op names and payload details
// folded in order. It is the run-to-run reproducibility fingerprint —
// two runs of the same seeded workload must produce identical hashes.
// An OpLog is written only by its rank, so it needs no lock.
type OpLog struct{ hash uint64 }

// NewOpLog returns an empty log.
func NewOpLog() *OpLog { return &OpLog{hash: fnvOffset} }

// Record folds one op into the trace hash.
func (l *OpLog) Record(name string, detail uint64) {
	l.hash = fnvUint64(fnvString(l.hash, name), detail)
}

// Hash returns the trace hash over the ops recorded so far.
func (l *OpLog) Hash() uint64 { return l.hash }

// GoroutineID returns the current goroutine's id, parsed from the
// runtime.Stack header ("goroutine N [..."). It is a debugging
// identity for naming the offending pair in an OwnershipError, not a
// synchronization primitive.
func GoroutineID() int64 {
	var buf [64]byte
	s := buf[:runtime.Stack(buf[:], false)]
	// Skip "goroutine ".
	const prefix = "goroutine "
	if len(s) < len(prefix) {
		return 0
	}
	s = s[len(prefix):]
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	id, err := strconv.ParseInt(string(s[:i]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}
