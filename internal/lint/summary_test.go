package lint

import (
	"strings"
	"testing"
)

// TestFixpointRecursion drives the summary fixpoint and effect engine
// over the recurse fixture: self-recursion (countdown), mutual
// recursion (pingA/pingB), and a cycle mixing sends with a collective
// (spiral). The fixpoint must terminate, witness chains must stay
// finite, and the effects must widen to Loop terms.
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

	// Cyclic SCC members are widened; drive (acyclic, calling into the
	// cycles) is not.
	for name, wantWidened := range map[string]bool{
		"countdown": true, "pingA": true, "pingB": true, "spiral": true, "drive": false,
	} {
		fn := lookupFn(t, pkgs[0], name)
		if got := facts.EffectWidened(fn); got != wantWidened {
			t.Errorf("EffectWidened(%s) = %v, want %v", name, got, wantWidened)
		}
	}

	// Widened effects are Loop(Choice(atoms)): nullable (zero
	// repetitions) and containing the cycle's collective atoms.
	count := facts.EffectOf(lookupFn(t, pkgs[0], "countdown"))
	if count == nil || !nullable(count) {
		t.Fatalf("countdown effect %s is not a nullable Loop term", count)
	}
	if got := collProject(count).String(); got != "Barrier*" {
		t.Errorf("countdown effect projects to %s, want Barrier*", got)
	}
	spiral := facts.EffectOf(lookupFn(t, pkgs[0], "spiral"))
	atoms := map[string]bool{}
	for _, a := range alphabet(spiral) {
		atoms[a.op] = true
	}
	if !atoms["Exchange"] || !atoms["send"] {
		t.Errorf("spiral widened alphabet %v lacks Exchange/send", atoms)
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
			if (bEff == nil) != (nEff == nil) || (bEff != nil && !bEff.Equal(nEff)) {
				t.Errorf("rebuild %d: %s effect changed: %s vs %s", i, name, bEff, nEff)
			}
		}
	}
}

// TestRankReturnSummary checks the interprocedural rank-return facts
// behind collseq's rank taint.
func TestRankReturnSummary(t *testing.T) {
	pkgs := fixturePkgs(t, "collseq")
	facts := gatherFacts(pkgs)

	fn := lookupFn(t, pkgs[0], "myOffset")
	via, ok := facts.RankReturn(fn)
	if !ok {
		t.Fatal("myOffset not recognized as rank-returning")
	}
	if got := witnessChain(fn, via); got != "myOffset -> Ctx.Rank" {
		t.Errorf("myOffset rank-return chain = %s", got)
	}
	if _, ok := facts.RankReturn(lookupFn(t, pkgs[0], "syncAll")); ok {
		t.Error("syncAll wrongly marked rank-returning")
	}
}
