package lint

// emit.go — the bridge from effect inference to the pumi-proto
// artifact. `pumi-vet -emit-automata` resolves each protocol entry
// point, takes its runtime-mode effect term (atoms are the op names the
// PCU runtime records, see rtOpName in effects.go), projects it onto
// collectives, and compiles it to a minimal DFA via
// internal/lint/automata. `pumi-vet -effects` prints the inferred terms
// themselves for debugging the inference.

import (
	"fmt"
	"go/types"
	"path"
	"sort"
	"strings"

	"github.com/fastmath/pumi-go/internal/lint/automata"
)

// AutomataEntries are the protocol entry points `pumi-vet
// -emit-automata` compiles by default: the exported operations whose
// collective schedules the runtime enforces online (pcu
// Options.Conform) and offline (pumi-trace -conform).
var AutomataEntries = []string{
	"chaos.RunRecoverable",
	"meshio.LoadCheckpoint",
	"meshio.SaveCheckpoint",
	"parma.BalanceSafe",
	"partition.TryMigrate",
	"pcu.Agree",
}

// findEntry resolves a "pkg.Func" entry name against the loaded
// packages: pkg matches the last import-path component of a non-test
// package, Func a package-scope function.
func findEntry(pkgs []*Package, entry string) (*types.Func, error) {
	i := strings.LastIndex(entry, ".")
	if i <= 0 || i == len(entry)-1 {
		return nil, fmt.Errorf("emit-automata: entry %q is not of the form pkg.Func", entry)
	}
	pkgName, fnName := entry[:i], entry[i+1:]
	for _, p := range pkgs {
		pp := pkgPathOf(p)
		if p.Pkg == nil || strings.HasSuffix(pp, "_test") {
			continue
		}
		if pp != pkgName && !strings.HasSuffix(pp, "/"+pkgName) {
			continue
		}
		if fn, ok := p.Pkg.Scope().Lookup(fnName).(*types.Func); ok {
			return fn, nil
		}
		return nil, fmt.Errorf("emit-automata: package %s has no function %s", pp, fnName)
	}
	return nil, fmt.Errorf("emit-automata: no loaded package matches %q (load the whole module: pumi-vet -emit-automata ./...)", pkgName)
}

// validRuntimeAtoms is the closed op vocabulary a runtime-mode term may
// use: every value of rtOpName plus the shrink boundary and the
// wildcard. Anything else leaking into an emitted term is an inference
// bug, caught before it reaches the artifact.
var validRuntimeAtoms = func() map[string]bool {
	set := map[string]bool{rtOpShrink: true, rtOpWildcard: true}
	for _, op := range rtOpName {
		set[op] = true
	}
	return set
}()

// effectTerm converts a collective-projected runtime effect into the
// automata package's term IR.
func effectTerm(e *Effect) (*automata.Term, error) {
	if e == nil {
		return automata.Empty(), nil
	}
	switch e.kind {
	case effEmpty:
		return automata.Empty(), nil
	case effOp:
		if !validRuntimeAtoms[e.op] {
			return nil, fmt.Errorf("atom %q is not a runtime op name", e.op)
		}
		return automata.Atom(e.op), nil
	case effSeq, effChoice, effLoop:
		kids := make([]*automata.Term, len(e.kids))
		for i, k := range e.kids {
			t, err := effectTerm(k)
			if err != nil {
				return nil, err
			}
			kids[i] = t
		}
		switch e.kind {
		case effSeq:
			return automata.Seq(kids...), nil
		case effChoice:
			return automata.Choice(kids...), nil
		default:
			return automata.Loop(kids[0]), nil
		}
	}
	return nil, fmt.Errorf("unknown effect kind %d", e.kind)
}

// EmitAutomata compiles the protocol automata of the given entry points
// (AutomataEntries when empty) over the loaded packages. The result is
// deterministic: same sources, same artifact bytes.
func EmitAutomata(pkgs []*Package, entries []string) (*automata.Set, error) {
	if len(entries) == 0 {
		entries = AutomataEntries
	}
	facts := gatherFacts(pkgs)
	machines := make([]automata.Machine, 0, len(entries))
	for _, entry := range entries {
		fn, err := findEntry(pkgs, entry)
		if err != nil {
			return nil, err
		}
		eff := facts.RuntimeEffectOf(fn)
		if eff == nil {
			return nil, fmt.Errorf("emit-automata: no effect inferred for %s", entry)
		}
		term, err := effectTerm(collProject(eff))
		if err != nil {
			return nil, fmt.Errorf("emit-automata: %s: %w", entry, err)
		}
		m, err := automata.Compile(entry, term)
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
	}
	set := automata.NewSet(machines)
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}

// FormatEffects renders the inferred effect terms of every declared
// function whose qualified name (pkg.Func or pkg.Recv.Func) contains
// pattern, sorted, one block per function: the static term (collseq's
// view), the runtime projection (the conformance monitor's view), and —
// verbose — the derivative exploration of the runtime collective
// schedule. This is `pumi-vet -effects [-func pattern] [-v]`.
func FormatEffects(pkgs []*Package, pattern string, verbose bool) string {
	facts := gatherFacts(pkgs)
	g := facts.graph
	names := make([]string, 0, len(g.order))
	byName := map[string]funcKey{}
	for _, key := range g.order {
		name := path.Base(key.pkg) + "." + key.String()
		if pattern != "" && !strings.Contains(name, pattern) {
			continue
		}
		names = append(names, name)
		byName[name] = key
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		n := g.nodes[byName[name]]
		fmt.Fprintf(&b, "%s:\n", name)
		widened := ""
		if n.effWidened {
			widened = "  (widened: recursive cycle)"
		}
		fmt.Fprintf(&b, "  static:  %s%s\n", n.effect, widened)
		fmt.Fprintf(&b, "  runtime: %s\n", n.effectRT)
		if verbose {
			term, err := effectTerm(collProject(n.effectRT))
			if err != nil {
				fmt.Fprintf(&b, "  derivatives: %v\n", err)
				continue
			}
			b.WriteString("  derivatives:\n")
			for _, line := range automata.Derivatives(term) {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	return b.String()
}
