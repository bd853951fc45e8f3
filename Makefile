GO ?= go

.PHONY: all build test loc escape-check memprofile bench-go bench-smoke fuzz-smoke pipeline-smoke race vet vet-self trace-smoke check

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
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l

# Escape gate: every variable the compiler moves to the heap in the
# array-indexed core (mesh, ds, partition) and the adaptation kernels
# (adapt) must be listed in
# escape-allow.txt — today the range-over-func iterator state and one
# cold strings.Builder. Line numbers and the inlining package qualifier
# are stripped, so only a new (or vanished) escaping variable is drift;
# a scratch array that silently escapes is a red build, not a profile
# reading. Accept one deliberately by adding its line to the file.
escape-check:
	$(GO) build -gcflags=-m ./internal/mesh ./internal/ds ./internal/partition ./internal/adapt 2>&1 \
		| grep 'moved to heap:' | sed -E 's/:[0-9]+:[0-9]+//; s/[a-z]+\.#/#/' | sort -u > /tmp/pumi-escape-check.txt
	diff -u escape-allow.txt /tmp/pumi-escape-check.txt

# Go micro-benchmarks, benchstat-ready:
#   make bench-go | benchstat -
# ExchangeSparse's traced row reads the flight recorder's overhead off
# against on-node (see DESIGN.md §10); the mesh rows are the
# adjacency kernel's (AdjacentTo by direction, FindFromVerts hit/miss,
# BuildTet fresh/existing; DESIGN.md §9); the zpart rows are the
# partitioners on the pipeline benchmark's vessel (DualGraph, MLGraph
# at 16 and 32 parts, PHG). For end-to-end numbers, bash bench/run.sh.
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
# adapt/mesh rows and divide by 21.
BENCH ?= BenchmarkMigration$$
SAMPLE ?= alloc_space
memprofile:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 20x -o /tmp/pumi-memprofile.test -memprofile /tmp/pumi-memprofile.out -memprofilerate 4096 .
	$(GO) tool pprof -sample_index=$(SAMPLE) -top -nodecount=15 -hide '^slices\.' /tmp/pumi-memprofile.test /tmp/pumi-memprofile.out

# One-iteration compile-and-run of every benchmark — catches bit-rotted
# benchmark code without paying for a measurement. Of the root package's
# paper benchmarks only the migration ones run: the rest take minutes.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./internal/pcu/... ./internal/mesh/ ./internal/field/ ./internal/zpart/
	$(GO) test -run '^$$' -bench 'Migration|RepartitionCycle|Ghosting|AdaptParallel' -benchtime=1x .

# Five seconds of native fuzzing on each decoder of outside bytes: the
# assignment file, the mesh file with its tag section, a checkpoint's
# part file and manifest, the message Reader, and the Chrome trace JSON
# pumi-trace reads. The committed corpus under testdata/fuzz runs with
# every plain `go test`; this lane is the part that looks for new
# inputs. A crasher is written next to the corpus: fix it and commit the
# file as a seed.
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

# Every internal package under the race detector, once: this is also
# where the soaks run — the chaos soak and its self-healing twin
# (DESIGN.md §7, §12), the sanitized soak and protocols (§8), the live
# telemetry scrape (§10), the plan-backed soak's repeated op-sequence
# hashes (§13) — and the seeded-bug corpus (§5).
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
# by pumi-trace (see DESIGN.md §10).
trace-smoke:
	$(GO) run ./cmd/pumi-bench -exp hybrid -san -trace /tmp/pumi-trace-smoke.json
	$(GO) run ./cmd/pumi-trace -validate /tmp/pumi-trace-smoke.json /tmp/pumi-trace-smoke.summary.json
	$(GO) run ./cmd/pumi-trace -critical /tmp/pumi-trace-smoke.json

# The full local gate: what CI runs.
check: vet vet-self escape-check build test race trace-smoke bench-smoke fuzz-smoke pipeline-smoke
