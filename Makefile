GO ?= go

.PHONY: all build test loc escape-check memprofile bench-go bench-smoke fuzz-smoke pipeline-smoke ab race vet vet-self trace-smoke check

all: build

build:
	$(GO) build ./...

# The plain (non-race) test lane also runs the allocation-regression
# tests pinning steady-state To/Exchange/decode at 0 allocs/op; they
# self-skip under -race and under the sanitizer.
test:
	$(GO) test -shuffle=on ./...

# Non-test Go lines under internal/ + cmd/ (lint fixtures excluded): the
# size figure ROADMAP re-anchors and CHANGES entries quote before/after.
# A gate: more than 21,500 lines fails the lane.
loc:
	@n=$$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l); \
	echo $$n; test $$n -le 21500 || { echo "make loc: $$n non-test lines, over the 21,500 limit"; exit 1; }

# Escape gate: every variable the compiler moves to the heap in the
# array-indexed core (mesh, ds, partition), the adaptation kernels
# (adapt), ParMA's cavity scratch (parma) and the message layer's
# Exchange/barrier hot path (pcu) must be listed in escape-allow.txt —
# today the range-over-func iterator state, one cold strings.Builder and
# pcu's cold paths (the fault-plan generator, the run's set-up and
# Supervise's revocation match). Line numbers and the inlining package
# qualifier are stripped, so only a new (or vanished) escaping variable
# is drift; a scratch array that silently escapes is a red build, not a
# profile reading. Accept one deliberately by adding its line to the
# file.
escape-check:
	$(GO) build -gcflags=-m ./internal/mesh ./internal/ds ./internal/partition ./internal/adapt ./internal/parma ./internal/pcu 2>&1 \
		| grep 'moved to heap:' | sed -E 's/:[0-9]+:[0-9]+//; s/[a-z]+\.#/#/' | sort -u > /tmp/pumi-escape-check.txt
	diff -u escape-allow.txt /tmp/pumi-escape-check.txt

# Go micro-benchmarks, benchstat-ready:
#   make bench-go | benchstat -
# ExchangeSparse's traced row reads the flight recorder's overhead off
# against on-node (see DESIGN.md §10); BarrierSkew (2 ranks, one late
# by 5/20/200 µs) and BarrierOversubscribed (16 ranks) are the A/B rows
# of the barrier's spin-then-park wait (DESIGN.md §9); the mesh rows
# are the adjacency kernel's (AdjacentTo by direction, FindFromVerts
# hit/miss, BuildTet fresh/existing; DESIGN.md §9); the zpart rows are the
# partitioners on the pipeline benchmark's vessel (DualGraph, MLGraph
# at 16 and 32 parts, PHG). The halo step's row is the root package's
# BenchmarkHaloStep (go test -run '^$' -bench HaloStep -benchmem .: one
# SyncGhostFloatTag + SyncShared + ReduceShared on halo-offnode's layout,
# 0 allocs/op). For end-to-end numbers, bash bench/run.sh.
bench-go:
	$(GO) test -run '^$$' -bench=. -benchmem ./internal/pcu/ ./internal/mesh/ ./internal/zpart/

# Where the bytes go: one root benchmark under -memprofile, then the top
# of its alloc_space profile — the figure ROADMAP's "largest share"
# claims are read from. Not a gate. BENCH is a -bench regexp; the test
# binary and the profile stay in /tmp. The generic slices helpers are
# hidden so a reservation shows under the function that made it.
# SAMPLE=inuse_space prints what is still live when the benchmark ends
# instead — BenchmarkMigration keeps its last iteration's parts — which
# is the footprint by the function that made each array.
# BENCH=BenchmarkRepartitionCycle is one bulk A->B->A + Verify cycle of
# the pipeline benchmark's repartition-vessel16: only the cycle runs
# under the timer, but the profile also holds the set-up (zpart, the
# scatter), so read the partition/mesh/pcu rows and divide by 21 — the
# iterations plus the warm-up. BENCH=BenchmarkAdaptParallel is the adapt
# stage of adapt-shock, each iteration on a fresh mesh: the profile also
# holds the untimed set-ups (meshgen, zpart, the scatter), so read the
# adapt/mesh rows and divide by 21. BENCH=BenchmarkAdaptShockCycle is a
# whole adapt-shock cycle (adapt, split, rebalance, checkpoint save and
# load, verify), each iteration on a fresh mesh: read it the same way.
# BENCH=BenchmarkParmaVessel32Cycle is parma-vessel32's T1-T4 BalanceSafe
# calls; the profile also holds the set-up and the untimed migrations
# back to assignment A.
# BENCH=BenchmarkHaloStep is
# halo-offnode's solver step: a step allocates nothing, so its profile is
# the set-up's (the vessel, MLGraph, the scatter, the ghosts).
BENCH ?= BenchmarkMigration$$
SAMPLE ?= alloc_space
memprofile:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 20x -o /tmp/pumi-memprofile.test -memprofile /tmp/pumi-memprofile.out -memprofilerate 4096 .
	$(GO) tool pprof -sample_index=$(SAMPLE) -top -nodecount=15 -hide '^slices\.' /tmp/pumi-memprofile.test /tmp/pumi-memprofile.out

# One-iteration compile-and-run of every benchmark — catches bit-rotted
# benchmark code without paying for a measurement. Of the root package's
# benchmarks only the pipeline replays (migration, ParMA, ghosting, the
# halo step, adaptation, the adapt-shock cycle) run: the rest take
# minutes.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./internal/pcu/... ./internal/mesh/ ./internal/field/ ./internal/zpart/
	$(GO) test -run '^$$' -bench 'Migration|RepartitionCycle|ParmaVessel32Cycle|Ghosting|HaloStep|AdaptParallel|AdaptShockCycle' -benchtime=1x .

# Five seconds of native fuzzing on each decoder of outside bytes: the
# assignment file, the one entity decoder through a mesh file and a
# checkpoint's part file, the manifest, the message Reader, and the
# Chrome trace JSON pumi-trace reads. The committed corpus under
# testdata/fuzz runs with every plain `go test`; this lane is the part
# that looks for new inputs. A crasher is written next to the corpus:
# fix it and commit the file as a seed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadAssignment -fuzztime 5s ./internal/meshio
	$(GO) test -run '^$$' -fuzz 'FuzzRead$$' -fuzztime 5s ./internal/meshio
	$(GO) test -run '^$$' -fuzz FuzzDecodePart -fuzztime 5s ./internal/meshio
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime 5s ./internal/pcu
	$(GO) test -run '^$$' -fuzz FuzzChromeTrace -fuzztime 5s ./internal/trace

# The pipeline benchmark is a Go module of its own (bench/go.mod), so
# the lanes above never build it: run its unit tests and -quick smoke,
# and the project analyzers over it. For numbers, bash bench/run.sh
# (see bench/README.md).
pipeline-smoke:
	cd bench && $(GO) test ./... && $(GO) run github.com/fastmath/pumi-go/cmd/pumi-vet ./...

# Interleaved A/B of the pipeline benchmark against commit REF: REF is
# checked out with git worktree under .bench_build/ab/ref, both trees run
# bash bench/run.sh -seed s [-workload W] for seeds 1..N — odd seeds run
# REF first, even seeds this tree first, so both sides share the box's
# slow phases — and each results.json is copied to
# .bench_build/ab/{old,new}/s.json. benchcmp then compares the two sets
# (exit 1 on any worse end-to-end metric). ~1 min per pair for all four
# workloads.
#   make ab REF=HEAD~1 [N=10] [W=halo-offnode]
N ?= 10
ab:
	@test -n "$(REF)" || { echo "usage: make ab REF=<commit> [N=10] [W=<workload>]"; exit 2; }
	@set -e; ab=.bench_build/ab; \
	git worktree remove --force $$ab/ref 2>/dev/null || true; \
	rm -rf $$ab; git worktree prune; mkdir -p $$ab/old $$ab/new; \
	git worktree add --detach $$ab/ref $(REF); \
	for s in $$(seq 1 $(N)); do \
		if [ $$((s % 2)) = 1 ]; then order="old new"; else order="new old"; fi; \
		for side in $$order; do \
			if [ $$side = old ]; then dir=$$ab/ref; else dir=.; fi; \
			echo "== seed $$s: $$side"; \
			(cd $$dir && bash bench/run.sh -seed $$s $(if $(W),-workload $(W))) >/dev/null; \
			cp $$dir/bench/out/results.json $$ab/$$side/$$s.json; \
		done; \
	done; \
	git worktree remove --force $$ab/ref; \
	cd bench && $(GO) run ./cmd/benchcmp ../$$ab/old ../$$ab/new

# Every internal package under the race detector, once: this is also
# where the soaks run — the chaos soak and its fault matrix
# (DESIGN.md §7), the sanitized soak and protocols (§8), the live
# telemetry scrape (§10), the plan-backed soak's repeated op-sequence
# hashes (§12) — and the seeded-bug corpus (§5).
race:
	$(GO) test -race -count=1 ./internal/...

# go vet, and gofmt: any file `gofmt -l` lists fails the lane.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Self-hosting gate: all analyzers over the whole repo, tests included.
# Any finding fails. Accept one deliberately with a //pumi-vet:ignore
# <analyzer> directive on or directly above the line, and say why there.
vet-self:
	$(GO) run ./cmd/pumi-vet ./...

# Traced smoke: the hybrid exchange sweep (in-process worlds up to 32
# ranks) under pumi-san with the flight recorder armed, then both
# emitted files — Chrome timeline and metrics summary — schema-validated
# by pumi-trace, the timeline's blame table, and the timeline diffed
# against its own summary (read back through trace.ChromePhases; see
# DESIGN.md §10).
trace-smoke:
	$(GO) run ./cmd/pumi-bench -exp hybrid -san -trace /tmp/pumi-trace-smoke.json
	$(GO) run ./cmd/pumi-trace -validate /tmp/pumi-trace-smoke.json /tmp/pumi-trace-smoke.summary.json
	$(GO) run ./cmd/pumi-trace -critical /tmp/pumi-trace-smoke.json
	$(GO) run ./cmd/pumi-trace /tmp/pumi-trace-smoke.json /tmp/pumi-trace-smoke.summary.json

# The full local gate: what CI runs.
check: vet vet-self escape-check loc build test race trace-smoke bench-smoke fuzz-smoke pipeline-smoke
