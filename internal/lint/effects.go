package lint

// effects.go — the communication-effect inference engine behind the
// collseq analyzer.
//
// Every function body is abstract-interpreted into an *effect term*, a
// regular expression over collective atoms:
//
//	ε           no communication
//	Op(a)       one atom: a collective op (Barrier, Exchange, SumInt64,
//	            a doc-marked collective)
//	e1 · e2     sequential composition (statement order)
//	e1 | e2     alternation (both arms of a branch)
//	e*          zero-or-more repetition (loops, widened recursion)
//
// Only collectives are atoms. Packing a buffer is not a schedule event:
// ranks pack to whichever peers they like and then meet in one
// Exchange, so rank-divergent packing before a uniform Exchange (the
// canonical sparse pattern) never enters a term and stays legal.
//
// Terms compose interprocedurally over the callgraph built in
// summary.go: a call site contributes its callee's inferred effect
// inline, so helper wrappers are transparent; pcu built-in collectives
// and doc-marked collective functions stay opaque atoms (a named sync
// point is a schedule event regardless of how it is implemented).
// Recursive call cycles are *widened*: every function in a cyclic SCC
// gets Loop(Choice(atoms-of-the-cycle)) — "some indeterminate
// repetition of these ops" — which keeps inference terminating and errs
// toward reporting when a rank guard surrounds recursion that
// communicates.
//
// The payoff is decidable schedule comparison. Two schedules are
// compared as regular languages with Brzozowski derivatives over
// canonicalized terms; inequivalence comes with a minimal witness
// string: the shortest op prefix after which one path can do something
// the other cannot.
//
// Soundness caveats (documented in DESIGN.md §8): function values
// invoked through variables contribute ε; goroutine bodies contribute ε
// to the spawning schedule; `goto` and `fallthrough` are approximated
// as fall-through; defers registered under a condition are optionalized
// (Choice with ε); recover is ignored (a panic path is modeled as an
// exit like return).

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

type effKind uint8

const (
	effEmpty effKind = iota
	effOp
	effSeq
	effChoice
	effLoop
)

// Effect is one canonicalized communication-effect term. Terms are
// immutable after construction; key is a canonical rendering used for
// structural equality, Choice deduplication and derivative memoization.
type Effect struct {
	kind effKind
	op   string // effOp: atom name
	kids []*Effect
	key  string
}

var emptyEffect = &Effect{kind: effEmpty, key: "ε"}

func opEffect(name string) *Effect {
	return &Effect{kind: effOp, op: name, key: name}
}

// seqEffect composes terms sequentially, flattening nested Seqs and
// dropping ε.
func seqEffect(kids ...*Effect) *Effect {
	var flat []*Effect
	for _, k := range kids {
		if k == nil || k.kind == effEmpty {
			continue
		}
		if k.kind == effSeq {
			flat = append(flat, k.kids...)
			continue
		}
		flat = append(flat, k)
	}
	switch len(flat) {
	case 0:
		return emptyEffect
	case 1:
		return flat[0]
	}
	keys := make([]string, len(flat))
	for i, k := range flat {
		keys[i] = k.key
	}
	return &Effect{kind: effSeq, kids: flat, key: "(" + strings.Join(keys, "·") + ")"}
}

// choiceEffect builds an alternation, flattening nested Choices,
// deduplicating and sorting arms by key (ACI canonicalization — this is
// what keeps the Brzozowski derivative state space finite).
func choiceEffect(kids ...*Effect) *Effect {
	var flat []*Effect
	seen := map[string]bool{}
	add := func(k *Effect) {
		if k == nil || seen[k.key] {
			return
		}
		seen[k.key] = true
		flat = append(flat, k)
	}
	for _, k := range kids {
		if k == nil {
			continue
		}
		if k.kind == effChoice {
			for _, kk := range k.kids {
				add(kk)
			}
			continue
		}
		add(k)
	}
	switch len(flat) {
	case 0:
		return emptyEffect
	case 1:
		return flat[0]
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].key < flat[j].key })
	keys := make([]string, len(flat))
	for i, k := range flat {
		keys[i] = k.key
	}
	return &Effect{kind: effChoice, kids: flat, key: "{" + strings.Join(keys, "|") + "}"}
}

// loopEffect wraps a term in zero-or-more repetition. Loop(ε)=ε and
// Loop(Loop(e))=Loop(e).
func loopEffect(e *Effect) *Effect {
	if e == nil || e.kind == effEmpty {
		return emptyEffect
	}
	if e.kind == effLoop {
		return e
	}
	return &Effect{kind: effLoop, kids: []*Effect{e}, key: e.key + "*"}
}

// alphabet collects the distinct atoms of a term in sorted order.
func alphabet(e *Effect) []*Effect {
	set := map[string]*Effect{}
	var walk func(*Effect)
	walk = func(e *Effect) {
		if e == nil {
			return
		}
		if e.kind == effOp {
			if _, ok := set[e.key]; !ok {
				set[e.key] = e
			}
			return
		}
		for _, k := range e.kids {
			walk(k)
		}
	}
	walk(e)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Effect, len(keys))
	for i, k := range keys {
		out[i] = set[k]
	}
	return out
}

// ---- Brzozowski-derivative language comparison ----

// nullable reports whether the term's language contains the empty
// sequence (the path can finish without further ops).
func nullable(e *Effect) bool {
	switch e.kind {
	case effEmpty, effLoop:
		return true
	case effOp:
		return false
	case effSeq:
		for _, k := range e.kids {
			if !nullable(k) {
				return false
			}
		}
		return true
	case effChoice:
		for _, k := range e.kids {
			if nullable(k) {
				return true
			}
		}
		return false
	}
	return false
}

// firsts returns the sorted set of atom names that can begin a sequence
// of the term's language.
func firsts(e *Effect) []string {
	set := map[string]bool{}
	var walk func(*Effect)
	walk = func(e *Effect) {
		switch e.kind {
		case effOp:
			set[e.op] = true
		case effSeq:
			for _, k := range e.kids {
				walk(k)
				if !nullable(k) {
					return
				}
			}
		case effChoice, effLoop:
			for _, k := range e.kids {
				walk(k)
			}
		}
	}
	walk(e)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// derivative computes the Brzozowski derivative of e with respect to
// atom a: the language of suffixes after consuming a. nil means a
// cannot occur first.
func derivative(e *Effect, a string) *Effect {
	switch e.kind {
	case effEmpty:
		return nil
	case effOp:
		if e.op == a {
			return emptyEffect
		}
		return nil
	case effSeq:
		var alts []*Effect
		for i, k := range e.kids {
			if d := derivative(k, a); d != nil {
				rest := append([]*Effect{d}, e.kids[i+1:]...)
				alts = append(alts, seqEffect(rest...))
			}
			if !nullable(k) {
				break
			}
		}
		if len(alts) == 0 {
			return nil
		}
		return choiceEffect(alts...)
	case effChoice:
		var alts []*Effect
		for _, k := range e.kids {
			if d := derivative(k, a); d != nil {
				alts = append(alts, d)
			}
		}
		if len(alts) == 0 {
			return nil
		}
		return choiceEffect(alts...)
	case effLoop:
		d := derivative(e.kids[0], a)
		if d == nil {
			return nil
		}
		return seqEffect(d, e)
	}
	return nil
}

// maxDivergeStates bounds the pair-state exploration of schedDiverge.
// ACI canonicalization keeps the derivative space finite, so real terms
// stay far below this; the bound is a backstop against pathological
// fixtures. On overflow the comparison conservatively reports equal
// (no finding) rather than a witness it cannot justify.
const maxDivergeStates = 50000

// schedDiverge compares the collective-schedule languages of a and b.
// It returns ("", true) when the languages are equal, else a minimal
// human-readable witness: the shortest op prefix after which the path
// labeled aLabel can do something the path labeled bLabel cannot (or
// vice versa).
func schedDiverge(a, b *Effect, aLabel, bLabel string) (string, bool) {
	if a.key == b.key {
		return "", true
	}
	type pairState struct {
		a, b *Effect
		path []string
	}
	seen := map[string]bool{}
	queue := []pairState{{a, b, nil}}
	visited := 0
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		k := s.a.key + "\x00" + s.b.key
		if seen[k] {
			continue
		}
		seen[k] = true
		if visited++; visited > maxDivergeStates {
			return "", true
		}
		at := "at the branch"
		if len(s.path) > 0 {
			at = "after " + strings.Join(s.path, "·")
		}
		// Every witness is phrased from one side; swap the labels when it
		// is b's side.
		if na, nb := nullable(s.a), nullable(s.b); na != nb {
			done, busy, rest := aLabel, bLabel, s.b
			if nb {
				done, busy, rest = bLabel, aLabel, s.a
			}
			ops := "nothing"
			if f := firsts(rest); len(f) > 0 {
				ops = strings.Join(f, " or ")
			}
			return fmt.Sprintf("%s, the %s can finish its collectives while the %s must still run %s",
				at, done, busy, ops), false
		}
		ops := append(firsts(s.a), firsts(s.b)...)
		slices.Sort(ops)
		for _, op := range slices.Compact(ops) {
			da, db := derivative(s.a, op), derivative(s.b, op)
			if (da == nil) != (db == nil) {
				can, cannot := aLabel, bLabel
				if da == nil {
					can, cannot = bLabel, aLabel
				}
				return fmt.Sprintf("%s, the %s can run %s where the %s cannot", at, can, op, cannot), false
			}
			queue = append(queue, pairState{da, db, append(slices.Clone(s.path), op)})
		}
	}
	return "", true
}

// ---- per-function abstract interpretation ----

// effFlow is the abstract result of executing a statement region: the
// effect of falling through it, whether fall-through is possible at
// all, and the effects (from region entry) of every path that leaves
// the enclosing function inside the region (return/panic).
type effFlow struct {
	eff   *Effect
	falls bool
	exits []*Effect
}

func fallsThrough(eff *Effect) effFlow { return effFlow{eff: eff, falls: true} }

// effEval interprets one function (or function literal) body. A fresh
// evaluator must be used per body: deferred effects accumulate on it.
type effEval struct {
	p         *Package
	facts     *Facts
	condDepth int
	deferred  []*Effect
}

func newEffEval(p *Package, facts *Facts) *effEval {
	return &effEval{p: p, facts: facts}
}

// funcBody computes the whole-function effect: the alternation of all
// exit paths and the fall-off-the-end path, followed by the deferred
// effects in LIFO order.
func (ev *effEval) funcBody(body *ast.BlockStmt) *Effect {
	ev.deferred = nil
	ev.condDepth = 0
	f := ev.evalStmts(body.List)
	paths := append([]*Effect{}, f.exits...)
	if f.falls {
		paths = append(paths, f.eff)
	}
	all := emptyEffect
	if len(paths) > 0 {
		all = choiceEffect(paths...)
	}
	parts := []*Effect{all}
	for i := len(ev.deferred) - 1; i >= 0; i-- {
		parts = append(parts, ev.deferred[i])
	}
	return seqEffect(parts...)
}

// evalStmts folds a statement list left to right. Statements after a
// non-falling statement are unreachable and ignored.
func (ev *effEval) evalStmts(list []ast.Stmt) effFlow {
	acc := emptyEffect
	var exits []*Effect
	for _, s := range list {
		f := ev.evalStmt(s)
		for _, x := range f.exits {
			exits = append(exits, seqEffect(acc, x))
		}
		if !f.falls {
			return effFlow{eff: emptyEffect, falls: false, exits: exits}
		}
		acc = seqEffect(acc, f.eff)
	}
	return effFlow{eff: acc, falls: true, exits: exits}
}

func (ev *effEval) evalStmt(s ast.Stmt) effFlow {
	switch n := s.(type) {
	case nil:
		return fallsThrough(emptyEffect)
	case *ast.BlockStmt:
		return ev.evalStmts(n.List)
	case *ast.LabeledStmt:
		return ev.evalStmt(n.Stmt)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return effFlow{eff: emptyEffect, falls: false, exits: []*Effect{ev.evalExprs(call.Args)}}
			}
		}
		return fallsThrough(ev.evalNode(n))
	case *ast.ReturnStmt:
		return effFlow{eff: emptyEffect, falls: false, exits: []*Effect{ev.evalNode(n)}}
	case *ast.BranchStmt:
		// break/continue/goto end this path within the function; the
		// enclosing Loop/Choice approximation absorbs the transfer.
		return fallsThrough(emptyEffect)
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		return fallsThrough(ev.evalNode(n))
	case *ast.GoStmt:
		// The spawned body runs on another goroutine: only the argument
		// evaluation happens on this schedule.
		return fallsThrough(ev.evalExprs(n.Call.Args))
	case *ast.DeferStmt:
		d := ev.callEffect(n.Call)
		if ev.condDepth > 0 {
			d = choiceEffect(d, emptyEffect)
		}
		ev.deferred = append(ev.deferred, d)
		return fallsThrough(ev.evalExprs(n.Call.Args))
	case *ast.IfStmt:
		init := ev.evalStmt(n.Init)
		prefix := seqEffect(init.eff, ev.evalNode(n.Cond))
		ev.condDepth++
		t := ev.evalStmts(n.Body.List)
		e := fallsThrough(emptyEffect)
		if n.Else != nil {
			e = ev.evalStmt(n.Else)
		}
		ev.condDepth--
		return ev.branch(prefix, []effFlow{t, e})
	case *ast.SwitchStmt:
		init := ev.evalStmt(n.Init)
		prefix := seqEffect(init.eff, ev.evalNode(n.Tag))
		return ev.caseBranches(prefix, n.Body, true)
	case *ast.TypeSwitchStmt:
		init := ev.evalStmt(n.Init)
		assign := ev.evalStmt(n.Assign)
		return ev.caseBranches(seqEffect(init.eff, assign.eff), n.Body, true)
	case *ast.SelectStmt:
		return ev.caseBranches(emptyEffect, n.Body, false)
	case *ast.ForStmt:
		init := ev.evalStmt(n.Init)
		condE := ev.evalNode(n.Cond)
		ev.condDepth++
		body := ev.evalStmts(n.Body.List)
		post := ev.evalStmt(n.Post)
		ev.condDepth--
		iter := seqEffect(condE, body.eff, post.eff)
		loop := loopEffect(iter)
		var exits []*Effect
		for _, x := range body.exits {
			exits = append(exits, seqEffect(init.eff, loop, condE, x))
		}
		return effFlow{eff: seqEffect(init.eff, loop, condE), falls: true, exits: exits}
	case *ast.RangeStmt:
		xEff := ev.evalNode(n.X)
		ev.condDepth++
		body := ev.evalStmts(n.Body.List)
		ev.condDepth--
		loop := loopEffect(body.eff)
		var exits []*Effect
		for _, x := range body.exits {
			exits = append(exits, seqEffect(xEff, loop, x))
		}
		return effFlow{eff: seqEffect(xEff, loop), falls: true, exits: exits}
	}
	return fallsThrough(emptyEffect)
}

// branch combines the arm flows of a conditional: exits union, normal
// effect the alternation of the arms that fall through.
func (ev *effEval) branch(prefix *Effect, arms []effFlow) effFlow {
	var exits []*Effect
	var norms []*Effect
	for _, a := range arms {
		for _, x := range a.exits {
			exits = append(exits, seqEffect(prefix, x))
		}
		if a.falls {
			norms = append(norms, a.eff)
		}
	}
	if len(norms) == 0 {
		return effFlow{eff: emptyEffect, falls: false, exits: exits}
	}
	return effFlow{eff: seqEffect(prefix, choiceEffect(norms...)), falls: true, exits: exits}
}

// caseBranches evaluates switch/select bodies. implicitDefault adds an
// ε arm when no default clause exists (the whole statement may match
// nothing).
func (ev *effEval) caseBranches(prefix *Effect, body *ast.BlockStmt, implicitDefault bool) effFlow {
	var arms []effFlow
	hasDefault := false
	ev.condDepth++
	for _, stmt := range body.List {
		switch cc := stmt.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			f := ev.evalStmts(cc.Body)
			f.eff = seqEffect(ev.evalExprs(cc.List), f.eff)
			arms = append(arms, f)
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
			comm := ev.evalStmt(cc.Comm)
			f := ev.evalStmts(cc.Body)
			f.eff = seqEffect(comm.eff, f.eff)
			arms = append(arms, f)
		}
	}
	ev.condDepth--
	if implicitDefault && !hasDefault {
		arms = append(arms, fallsThrough(emptyEffect))
	}
	if len(arms) == 0 {
		return fallsThrough(prefix)
	}
	return ev.branch(prefix, arms)
}

// evalNode computes the effect of evaluating an expression, or the
// operands of a simple statement: the effects of the calls it makes, in
// evaluation order. go/ast visits children in source order, which is
// Go's evaluation order, so a post-order walk puts a call's receiver
// and arguments before the call they feed. A function literal is a
// definition and communicates nothing.
func (ev *effEval) evalNode(n ast.Node) *Effect {
	if n == nil {
		return emptyEffect
	}
	var parts []*Effect
	var open []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			if call, ok := open[len(open)-1].(*ast.CallExpr); ok {
				parts = append(parts, ev.callEffect(call))
			}
			open = open[:len(open)-1]
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		open = append(open, n)
		return true
	})
	return seqEffect(parts...)
}

// evalExprs evaluates a list of expressions left to right.
func (ev *effEval) evalExprs(list []ast.Expr) *Effect {
	parts := make([]*Effect, len(list))
	for i, e := range list {
		parts[i] = ev.evalNode(e)
	}
	return seqEffect(parts...)
}

// callEffect resolves the effect contributed by one call: a collective
// atom for pcu built-ins and doc-marked collectives, the callee's
// inferred effect for resolved in-module functions, ε otherwise.
func (ev *effEval) callEffect(call *ast.CallExpr) *Effect {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return newEffEval(ev.p, ev.facts).funcBody(lit.Body)
	}
	fn := funcOf(ev.p.Info, call.Fun)
	// The pcu run drivers execute their final function argument on the
	// spawned world's schedule; checked before the doc-mark test because
	// RunOpt's doc mentions a collective stall.
	if runDriver(fn) && len(call.Args) > 0 {
		return ev.bodyArgEffect(call.Args[len(call.Args)-1])
	}
	if ev.facts.directCollective(fn) {
		return opEffect(fn.Name())
	}
	if e := ev.facts.summary(fn).effect; e != nil {
		return e
	}
	return emptyEffect
}

// runDriver reports whether fn is one of the pcu run drivers whose
// final argument executes as the spawned world's schedule.
func runDriver(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !pathHasSuffix(fn.Pkg().Path(), pcuPkg) {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "Run", "RunOn", "RunOpt", "Supervise":
		return true
	}
	return false
}

// bodyArgEffect resolves the effect of a run driver's body argument: a
// function literal is evaluated in place, a named function contributes
// its inferred effect, and anything else is a dynamic value: ε.
func (ev *effEval) bodyArgEffect(arg ast.Expr) *Effect {
	if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
		return newEffEval(ev.p, ev.facts).funcBody(lit.Body)
	}
	if e := ev.facts.summary(funcOf(ev.p.Info, arg)).effect; e != nil {
		return e
	}
	return emptyEffect
}

// ---- interprocedural effect inference over the callgraph ----

// inferEffects computes every function's effect term. SCCs of the
// callgraph are processed in reverse-topological order (Tarjan);
// acyclic functions are interpreted structurally with callee effects
// already resolved, cyclic SCCs are widened to
// Loop(Choice(atoms-appearing-in-the-cycle)).
func (g *callGraph) inferEffects(facts *Facts) {
	index := map[funcKey]int{}
	low := map[funcKey]int{}
	onStack := map[funcKey]bool{}
	var stack []funcKey
	next := 0

	var strongconnect func(k funcKey)
	strongconnect = func(k funcKey) {
		n := g.nodes[k]
		next++
		index[k] = next
		low[k] = next
		stack = append(stack, k)
		onStack[k] = true
		for _, cs := range n.calls {
			if _, ok := g.nodes[cs.key]; !ok {
				continue
			}
			if _, seen := index[cs.key]; !seen {
				strongconnect(cs.key)
				if low[cs.key] < low[k] {
					low[k] = low[cs.key]
				}
			} else if onStack[cs.key] && index[cs.key] < low[k] {
				low[k] = index[cs.key]
			}
		}
		if low[k] != index[k] {
			return
		}
		// k roots an SCC: pop it and resolve its effects. All SCCs it
		// calls into are already resolved (reverse-topological order).
		var comp []funcKey
		for {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[top] = false
			comp = append(comp, top)
			if top == k {
				break
			}
		}
		g.resolveEffects(facts, comp)
	}
	for _, k := range g.order {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}
}

// resolveEffects assigns effect terms to one SCC.
func (g *callGraph) resolveEffects(facts *Facts, comp []funcKey) {
	if len(comp) == 1 {
		n := g.nodes[comp[0]]
		selfRec := false
		for _, cs := range n.calls {
			if cs.key == n.key {
				selfRec = true
				break
			}
		}
		if !selfRec {
			n.effect = newEffEval(n.pkg, facts).funcBody(n.decl.Body)
			return
		}
	}
	// Cyclic SCC (mutual or self recursion): widen. Collect every atom
	// the cycle can perform — direct collectives and the alphabets of
	// out-of-cycle callees — and wrap them in Loop(Choice(...)): some
	// indeterminate repetition.
	var atoms []*Effect
	for _, k := range comp {
		n := g.nodes[k]
		ast.Inspect(n.decl.Body, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcOf(n.pkg.Info, call.Fun)
			if runDriver(fn) || facts.directCollective(fn) {
				// A run driver's body argument is dynamic inside a widened
				// cycle, so it is an opaque atom like a collective.
				atoms = append(atoms, opEffect(fn.Name()))
			} else if cn := g.node(fn); cn != nil && !slices.Contains(comp, cn.key) && cn.effect != nil {
				atoms = append(atoms, alphabet(cn.effect)...)
			}
			return true
		})
	}
	eff := loopEffect(choiceEffect(atoms...))
	for _, k := range comp {
		g.nodes[k].effect = eff
	}
}
