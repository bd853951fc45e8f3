// Package pcu is the Parallel Control Utility: the message-passing
// substrate every distributed algorithm in this library runs on. It
// plays the role MPI plays for PUMI.
//
// Because Go has no MPI ecosystem, pcu implements an in-process
// distributed runtime: Run spawns one goroutine per rank, each rank owns
// only its private state, and all inter-rank communication flows through
// this package — phased sparse neighbor exchanges (the PCU
// begin/pack/send/receive pattern used by migration, ghosting and ParMA)
// and collectives (barrier, reduce, allreduce, allgather, broadcast,
// exclusive scan).
//
// The runtime is architecture aware: ranks are mapped onto an
// hwtopo.Topology, and messages between ranks on different nodes pass
// through an explicit serialize-and-copy path while on-node messages are
// handed over by reference. This reproduces the genuine cost asymmetry
// between network and shared-memory communication that the paper's
// two-level partitioning exploits, and the runtime counts both classes
// of traffic separately so experiments can report it.
//
// # Memory-ordering contract
//
// The runtime stays race-free under the following discipline, which all
// code in this module follows and go test -race plus the pumi-vet
// static analyzers enforce:
//
//   - A Ctx is goroutine-confined. It must only be used by the rank
//     goroutine it was handed to: never capture it in a go statement,
//     store it in a global, or send it over a channel (the ctxescape
//     analyzer flags all three). Everything reachable only through a
//     Ctx — its out-buffers, the Messages returned by Exchange — is
//     private to that rank.
//
//   - All cross-rank data transfer is synchronized by the barrier.
//     Arrivals are counted under its mutex and the last arriver
//     advances an atomic generation, so every write a rank performs
//     before bar.wait() happens-before every read any rank performs
//     after the same generation completes. A waiter that is not last
//     polls the generation for up to spinBudget (100 µs, about twice
//     the wake-up of a parked goroutine) before it parks on the
//     barrier's cond; the poll is on only when the world has no more
//     ranks than GOMAXPROCS at its start, so an oversubscribed world
//     parks at once. Exchange publishes inbox entries
//     under the inbox mutex before its single delivery barrier, and
//     collects them after it. Deliveries are phase-tagged rather than
//     fenced by a second barrier: a fast rank can run at most one phase
//     ahead (its next barrier cannot complete until every rank reaches
//     it), so an inbox holds entries of at most two adjacent phases and
//     collection filters by tag, leaving newer entries in place.
//
//   - Ranks meet only in the same op. Each barrier arrival records the
//     op its rank is in — the op name, plus the combiner of a named
//     reduction (SumInt64 does not meet MaxInt64) — and the last
//     arriver compares them before it advances the generation. On a
//     mismatch no rank is released: the barrier is poisoned with a
//     *MismatchError, so no rank reads a slot or an inbox a peer in
//     another op filled. Plain and sanitized runs take the same waits.
//
//   - Exchange machinery is pooled per rank. The per-peer Buffers, the
//     backing arrays and the Readers handed out by Exchange all recycle
//     through free lists owned by a single rank, so reuse needs no
//     synchronization: on-node delivery transfers array ownership to
//     the receiver, and the receiver's Reader.Done returns the array to
//     its own pool. Consequently a Message, its Reader and any slice
//     decoded without copying (BytesNoCopy) are valid only
//     until Done — or the next Exchange — and must never be stored;
//     Reader.Bytes returns a copy that survives. The bufdiscipline
//     analyzer flags uses of an uncopied slice past Done.
//
//   - Collectives write only their own World.slots entry, then barrier,
//     then read the other entries, then barrier again before any rank
//     may overwrite its slot for the next collective. No slot is ever
//     written concurrently with a read.
//
//   - A Buffer handed out by Ctx.To is sealed once Exchange delivers
//     it, because on-node delivery passes the bytes by reference;
//     packing into a stale buffer panics instead of racing with the
//     receiver's decode (the bufdiscipline analyzer catches this
//     statically, the seal catches it at run time).
//
//   - A rank waits in one place: the barrier, which also diagnoses
//     stalls. The arrival or exit that leaves every rank arrived or
//     finished proves none can advance and poisons the barrier — with a
//     *StallError, or in a world Supervise runs with a *RevokedError
//     naming the vanished ranks, after which Supervise re-runs the body
//     on the survivors. A once-armed timer gives the StallTimeout
//     verdict.
//
//   - The traffic counters are atomics, so Stats may be called from any
//     rank at any time — including concurrently with message delivery —
//     and yields a consistent (if instantaneous) snapshot.
package pcu
