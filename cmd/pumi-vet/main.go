// Command pumi-vet runs PUMI's project-specific static analyzers over
// the module. It is the static half of the correctness tooling (the
// dynamic half is `go test -race` plus partition.Verify):
//
//	go run ./cmd/pumi-vet ./...
//
// Exit status is 0 when the tree is clean, 1 when any analyzer fired,
// 2 on usage or load errors. See internal/lint for the analyzers:
//
//	ctxescape     *pcu.Ctx escaping its goroutine (directly or via helpers)
//	bufdiscipline stale phase buffers / unchecked message readers
//	enthandle     cross-part entity-handle comparisons
//	maporder      map iteration order flowing into sends/reductions
//	phaseorder    begin/to/exchange ordering of phased exchanges
//	collseq       rank-dependent branches/loops with divergent
//	              collective schedules, proved over inferred effect
//	              terms however many calls deep the collective hides
//	              and however the rank flows into the guard
//
// The analyzers are interprocedural: a pre-pass builds a callgraph with
// per-function summaries (reaches a collective? leaks its Ctx
// parameter? contributes sends? returns a rank-derived value?) and a
// communication-effect term per function, so wrapping a violation in
// helper functions does not hide it.
//
// Each analyzer has a row of its own in the seeded-bug corpus
// (internal/lint/corpus_test.go, DESIGN.md §5): a bug no other layer
// catches.
//
// Self-hosting gate: `make vet-self` runs every analyzer over the
// whole repository, tests included, and fails on any finding.
//
// Code that violates an invariant on purpose — the deadlock-diagnosis
// tests skip collectives on some ranks to prove the watchdog catches
// it — suppresses a finding with a directive on or directly above the
// offending line (a name that is no analyzer is itself a finding):
//
//	if c.Rank() != 0 { //pumi-vet:ignore collseq
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/fastmath/pumi-go/internal/cmdutil"
	"github.com/fastmath/pumi-go/internal/lint"
)

func main() {
	cmdutil.SetTool("pumi-vet")
	var (
		list    = flag.Bool("list", false, "list analyzers and exit")
		only    = flag.String("analyzers", "", "comma-separated subset of analyzers to run")
		noTests = flag.Bool("notests", false, "skip _test.go files")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pumi-vet [flags] [packages]\n\n"+
			"Packages are directories, optionally ending in /... for a recursive\n"+
			"walk (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			cmdutil.Usagef("unknown analyzer %q", name)
		}
		analyzers = sel
	}

	cwd, err := os.Getwd()
	if err != nil {
		cmdutil.Usagef("%v", err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		cmdutil.Usagef("%v", err)
	}
	loader.IncludeTests = !*noTests
	pkgs, err := loader.Load(cwd, flag.Args()...)
	if err != nil {
		cmdutil.Usagef("%v", err)
	}

	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		cmdutil.Failf("%d finding(s)", len(diags))
	}
}
