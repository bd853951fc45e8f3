package lint

import (
	"strings"
	"testing"
)

// TestFixpointRecursion drives the summary fixpoint and effect engine
// over the recurse fixture: self-recursion (countdown), mutual
// recursion (pingA/pingB), and a cycle mixing sends with a collective
// (spiral). The fixpoint must terminate, witness chains must stay
// finite, and the cycles' effects must widen to Loop terms over their
// collectives.
func TestFixpointRecursion(t *testing.T) {
	pkgs := fixturePkgs(t, "recurse")
	facts := gatherFacts(pkgs)

	for _, name := range []string{"countdown", "pingA", "pingB", "spiral", "drive"} {
		fn := lookupFn(t, pkgs[0], name)
		chain, ok := facts.CollectiveWitness(fn)
		if !ok {
			t.Errorf("%s not recognized as collective", name)
			continue
		}
		if len(chain) > 8 {
			t.Errorf("%s witness chain did not terminate: %v", name, chain)
		}
		rendered := witnessChain(fn, chain)
		if strings.Count(rendered, name) > 2 {
			t.Errorf("%s witness chain loops on itself: %s", name, rendered)
		}
	}

	// Widened effects are Loop(Choice(atoms)): nullable (zero
	// repetitions) and containing the cycle's collective atoms.
	count := facts.EffectOf(lookupFn(t, pkgs[0], "countdown"))
	if count == nil || !nullable(count) {
		t.Fatalf("countdown effect %v is not a nullable Loop term", count)
	}
	if got := count.key; got != "Barrier*" {
		t.Errorf("countdown effect = %s, want Barrier*", got)
	}
	// spiral packs sends around its Exchange; packing is no atom.
	if got := facts.EffectOf(lookupFn(t, pkgs[0], "spiral")).key; got != "Exchange*" {
		t.Errorf("spiral effect = %s, want Exchange*", got)
	}

	// The whole fixture is deadlock-free: no analyzer fires on it.
	if diags := Run(pkgs, Analyzers()); len(diags) != 0 {
		t.Errorf("recurse fixture produced diagnostics: %v", diags)
	}
}

// TestFixpointDeterministic rebuilds the summaries and compares witness
// chains and effect keys: iteration order must not leak into results.
func TestFixpointDeterministic(t *testing.T) {
	pkgs := fixturePkgs(t, "recurse")
	base := gatherFacts(pkgs)
	for i := 0; i < 3; i++ {
		next := gatherFacts(pkgs)
		for _, name := range []string{"countdown", "pingA", "pingB", "spiral", "drive"} {
			fn := lookupFn(t, pkgs[0], name)
			bChain, _ := base.CollectiveWitness(fn)
			nChain, _ := next.CollectiveWitness(fn)
			if strings.Join(bChain, "|") != strings.Join(nChain, "|") {
				t.Errorf("rebuild %d: %s witness chain changed: %v vs %v", i, name, bChain, nChain)
			}
			bEff, nEff := base.EffectOf(fn), next.EffectOf(fn)
			if (bEff == nil) != (nEff == nil) || (bEff != nil && bEff.key != nEff.key) {
				t.Errorf("rebuild %d: %s effect changed: %v vs %v", i, name, bEff, nEff)
			}
		}
	}
}

// TestRankReturnSummary checks the interprocedural rank-return facts
// behind collseq's rank taint.
func TestRankReturnSummary(t *testing.T) {
	pkgs := fixturePkgs(t, "collseq")
	facts := gatherFacts(pkgs)

	for fn, want := range map[string]bool{
		"myOffset": true, "rankAhead": true, "rankViaLocal": true,
		"syncAll": false, "rankReduced": false,
	} {
		if got := facts.summary(lookupFn(t, pkgs[0], fn)).retRank; got != want {
			t.Errorf("%s rank return = %v, want %v", fn, got, want)
		}
	}
}
