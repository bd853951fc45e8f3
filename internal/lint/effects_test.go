package lint

import (
	"go/types"
	"strings"
	"testing"
)

func op(name string) *Effect { return opEffect(name) }

func TestEffectCanonicalization(t *testing.T) {
	b, e, s := op("Barrier"), op("Exchange"), op("SumInt64")

	if got := seqEffect(); got != emptyEffect {
		t.Errorf("seq() = %s, want ε", got.key)
	}
	if got := seqEffect(emptyEffect, b, emptyEffect); got.key != b.key {
		t.Errorf("ε·Barrier·ε = %s, want Barrier", got.key)
	}
	// Seq flattening: (a·b)·c == a·(b·c).
	if l, r := seqEffect(seqEffect(b, e), s), seqEffect(b, seqEffect(e, s)); l.key != r.key {
		t.Errorf("seq not associative: %s vs %s", l.key, r.key)
	}
	// Choice is ACI: dedup, flatten, order-independent.
	if l, r := choiceEffect(b, e), choiceEffect(e, b, e); l.key != r.key {
		t.Errorf("choice not ACI: %s vs %s", l.key, r.key)
	}
	if got := choiceEffect(b, b); got.key != b.key {
		t.Errorf("Barrier|Barrier = %s, want Barrier", got.key)
	}
	// Loop(ε)=ε, Loop(Loop(e))=Loop(e).
	if got := loopEffect(emptyEffect); got != emptyEffect {
		t.Errorf("ε* = %s, want ε", got.key)
	}
	if got := loopEffect(loopEffect(b)); got.key != loopEffect(b).key {
		t.Errorf("(Barrier*)* = %s, want Barrier*", got.key)
	}
}

func TestSchedDivergeEqual(t *testing.T) {
	b, e := op("Barrier"), op("Exchange")
	cases := []struct{ a, b *Effect }{
		{b, b},
		{seqEffect(b, e), seqEffect(b, e)},
		// Distinct terms, equal languages: e|e·e ⊂ e* on both sides.
		{loopEffect(b), choiceEffect(emptyEffect, seqEffect(b, loopEffect(b)))},
	}
	for _, c := range cases {
		if w, equal := schedDiverge(c.a, c.b, "x", "y"); !equal {
			t.Errorf("schedDiverge(%s, %s) diverged: %s", c.a.key, c.b.key, w)
		}
	}
}

func TestSchedDivergeWitness(t *testing.T) {
	b, e, s := op("Barrier"), op("Exchange"), op("SumInt64")
	cases := []struct {
		a, b *Effect
		want string
	}{
		{b, emptyEffect, "at the branch, the y can finish its collectives while the x must still run Barrier"},
		{seqEffect(b, s), b, "after Barrier, the y can finish its collectives while the x must still run SumInt64"},
		{seqEffect(b, e), seqEffect(b, s), "after Barrier, the x can run Exchange where the y cannot"},
	}
	for _, c := range cases {
		w, equal := schedDiverge(c.a, c.b, "x", "y")
		if equal {
			t.Errorf("schedDiverge(%s, %s) reported equal", c.a.key, c.b.key)
			continue
		}
		if w != c.want {
			t.Errorf("schedDiverge(%s, %s)\n got %q\nwant %q", c.a.key, c.b.key, w, c.want)
		}
	}
}

func TestSchedDivergeLoopVsFixed(t *testing.T) {
	b := op("Barrier")
	// Barrier* vs Barrier: the starred side may stop at zero.
	w, equal := schedDiverge(loopEffect(b), b, "loop", "straight")
	if equal {
		t.Fatal("Barrier* vs Barrier reported equal")
	}
	if !strings.Contains(w, "can finish its collectives") {
		t.Errorf("witness %q does not explain the nullable mismatch", w)
	}
}

func TestAlphabetSorted(t *testing.T) {
	term := seqEffect(op("Exchange"), choiceEffect(op("Barrier"), op("SumInt64")), op("Exchange"))
	var names []string
	for _, a := range alphabet(term) {
		names = append(names, a.op)
	}
	want := "Barrier,Exchange,SumInt64"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("alphabet = %s, want %s", got, want)
	}
}

// lookupFn resolves a package-scope function in a fixture package.
func lookupFn(t *testing.T, p *Package, name string) *types.Func {
	t.Helper()
	obj := p.Pkg.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("fixture function %s not found", name)
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("%s is %T, not a function", name, obj)
	}
	return fn
}

func TestInferredEffects(t *testing.T) {
	pkgs := fixturePkgs(t, "collseq")
	facts := gatherFacts(pkgs)
	cases := []struct {
		fn   string
		want string
	}{
		{"seqOne", "Barrier"},
		{"seqBoth", "(Barrier·SumInt64)"},
		{"okBothArmsEqual", "Bcast"},
		{"okEarlyReturnEqual", "Bcast"},
		{"okReceiverArgsCall", "(SumInt64·MaxInt64·Barrier)"},
		{"okNestedArgs", "(SumInt64·MaxInt64·Barrier)"},
		{"okInvokedLiteral", "(Barrier·SumInt64)"},
		{"okDefers", "(MaxInt64·{SumInt64|ε}·Barrier)"},
		{"okRunOptBody", "(Barrier·SumInt64)"},
	}
	for _, c := range cases {
		fn := lookupFn(t, pkgs[0], c.fn)
		eff := facts.EffectOf(fn)
		if eff == nil {
			t.Errorf("EffectOf(%s) = nil", c.fn)
			continue
		}
		if got := eff.key; got != c.want {
			t.Errorf("EffectOf(%s) = %s, want %s", c.fn, got, c.want)
		}
	}
}

// EffectOf returns fn's inferred communication effect: a collective
// atom for direct collectives, the fixpoint term for in-module
// functions, nil for functions outside the loaded set.
func (f *Facts) EffectOf(fn *types.Func) *Effect {
	if fn == nil {
		return nil
	}
	if f.directCollective(fn) {
		return opEffect(fn.Name())
	}
	if n := f.graph.node(fn); n != nil {
		return n.effect
	}
	return nil
}
