package lint

// effects.go — the communication-effect inference engine behind the
// collseq analyzer.
//
// Every function body is abstract-interpreted into an *effect term*, a
// regular expression over communication atoms:
//
//	ε           no communication
//	Op(a)       one atom: a collective op (Barrier, Exchange, SumInt64,
//	            a doc-marked collective), a send (To/pack on a buffer),
//	            or a reader-lifecycle event (Reader.Done)
//	e1 · e2     sequential composition (statement order)
//	e1 | e2     alternation (both arms of a branch)
//	e*          zero-or-more repetition (loops, widened recursion)
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
// The payoff is decidable schedule comparison. The *collective
// schedule* of a term is its projection onto collective atoms (sends
// and reader events erased — rank-divergent packing before a uniform
// Exchange is the canonical sparse pattern and must stay legal). Two
// schedules are compared as regular languages with Brzozowski
// derivatives over canonicalized terms; inequivalence comes with a
// minimal witness string: the shortest op prefix after which one path
// can do something the other cannot.
//
// Soundness caveats (documented in DESIGN.md §11): function values
// invoked through variables contribute ε; goroutine bodies contribute ε
// to the spawning schedule; `goto` and `fallthrough` are approximated
// as fall-through; defers registered under a condition are optionalized
// (Choice with ε); recover is ignored (a panic path is modeled as an
// exit like return).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
	coll bool   // effOp: collective atom (survives schedule projection)
	pos  token.Pos
	kids []*Effect
	key  string
}

var emptyEffect = &Effect{kind: effEmpty, key: "ε"}

func opEffect(name string, coll bool, pos token.Pos) *Effect {
	prefix := "s:"
	if coll {
		prefix = "C:"
	}
	return &Effect{kind: effOp, op: name, coll: coll, pos: pos, key: prefix + name}
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

// String renders a term for diagnostics and debugging.
func (e *Effect) String() string {
	if e == nil {
		return "ε"
	}
	switch e.kind {
	case effEmpty:
		return "ε"
	case effOp:
		return e.op
	case effSeq:
		parts := make([]string, len(e.kids))
		for i, k := range e.kids {
			parts[i] = k.String()
		}
		return strings.Join(parts, "·")
	case effChoice:
		parts := make([]string, len(e.kids))
		for i, k := range e.kids {
			parts[i] = k.String()
		}
		return "(" + strings.Join(parts, " | ") + ")"
	case effLoop:
		inner := e.kids[0].String()
		if e.kids[0].kind == effSeq || e.kids[0].kind == effChoice {
			return "(" + inner + ")*"
		}
		return inner + "*"
	}
	return "?"
}

// Equal reports structural (canonical) term equality. Language
// equivalence is the job of schedDiverge.
func (e *Effect) Equal(o *Effect) bool {
	if e == nil || o == nil {
		return e == o
	}
	return e.key == o.key
}

// collProject erases non-collective atoms, yielding the collective
// schedule of a term.
func collProject(e *Effect) *Effect {
	if e == nil {
		return emptyEffect
	}
	switch e.kind {
	case effEmpty:
		return emptyEffect
	case effOp:
		if e.coll {
			return e
		}
		return emptyEffect
	case effSeq:
		kids := make([]*Effect, len(e.kids))
		for i, k := range e.kids {
			kids[i] = collProject(k)
		}
		return seqEffect(kids...)
	case effChoice:
		kids := make([]*Effect, len(e.kids))
		for i, k := range e.kids {
			kids[i] = collProject(k)
		}
		return choiceEffect(kids...)
	case effLoop:
		return loopEffect(collProject(e.kids[0]))
	}
	return emptyEffect
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

// schedDiverge compares the collective-schedule languages of a and b
// (projection applied internally). It returns ("", true) when the
// languages are equal, else a minimal human-readable witness: the
// shortest op prefix after which the path labeled aLabel can do
// something the path labeled bLabel cannot (or vice versa).
func schedDiverge(a, b *Effect, aLabel, bLabel string) (string, bool) {
	pa, pb := collProject(a), collProject(b)
	if pa.Equal(pb) {
		return "", true
	}
	type pairState struct {
		a, b *Effect
		path []string
	}
	seen := map[string]bool{}
	queue := []pairState{{pa, pb, nil}}
	visited := 0
	prefix := func(path []string) string {
		if len(path) == 0 {
			return "at the branch"
		}
		return "after " + strings.Join(path, "·")
	}
	opsOf := func(e *Effect) string {
		f := firsts(e)
		if len(f) == 0 {
			return "nothing"
		}
		return strings.Join(f, " or ")
	}
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
		na, nb := nullable(s.a), nullable(s.b)
		if na != nb {
			if na {
				return fmt.Sprintf("%s, the %s can finish its collectives while the %s must still run %s",
					prefix(s.path), aLabel, bLabel, opsOf(s.b)), false
			}
			return fmt.Sprintf("%s, the %s can finish its collectives while the %s must still run %s",
				prefix(s.path), bLabel, aLabel, opsOf(s.a)), false
		}
		ops := map[string]bool{}
		for _, op := range firsts(s.a) {
			ops[op] = true
		}
		for _, op := range firsts(s.b) {
			ops[op] = true
		}
		sorted := make([]string, 0, len(ops))
		for op := range ops {
			sorted = append(sorted, op)
		}
		sort.Strings(sorted)
		for _, op := range sorted {
			da, db := derivative(s.a, op), derivative(s.b, op)
			switch {
			case da != nil && db == nil:
				return fmt.Sprintf("%s, the %s can run %s where the %s cannot",
					prefix(s.path), aLabel, op, bLabel), false
			case da == nil && db != nil:
				return fmt.Sprintf("%s, the %s can run %s where the %s cannot",
					prefix(s.path), bLabel, op, aLabel), false
			default:
				path := make([]string, len(s.path)+1)
				copy(path, s.path)
				path[len(s.path)] = op
				queue = append(queue, pairState{da, db, path})
			}
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
	g         *callGraph
	condDepth int
	deferred  []*Effect
}

func newEffEval(p *Package, facts *Facts) *effEval {
	var g *callGraph
	if facts != nil {
		g = facts.graph
	}
	return &effEval{p: p, facts: facts, g: g}
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
				var args []*Effect
				for _, a := range call.Args {
					args = append(args, ev.evalExpr(a))
				}
				return effFlow{eff: emptyEffect, falls: false, exits: []*Effect{seqEffect(args...)}}
			}
		}
		return fallsThrough(ev.evalExpr(n.X))
	case *ast.ReturnStmt:
		var parts []*Effect
		for _, r := range n.Results {
			parts = append(parts, ev.evalExpr(r))
		}
		return effFlow{eff: emptyEffect, falls: false, exits: []*Effect{seqEffect(parts...)}}
	case *ast.BranchStmt:
		// break/continue/goto end this path within the function; the
		// enclosing Loop/Choice approximation absorbs the transfer.
		return fallsThrough(emptyEffect)
	case *ast.AssignStmt:
		var parts []*Effect
		for _, l := range n.Lhs {
			parts = append(parts, ev.evalExpr(l))
		}
		for _, r := range n.Rhs {
			parts = append(parts, ev.evalExpr(r))
		}
		return fallsThrough(seqEffect(parts...))
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return fallsThrough(emptyEffect)
		}
		var parts []*Effect
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					parts = append(parts, ev.evalExpr(v))
				}
			}
		}
		return fallsThrough(seqEffect(parts...))
	case *ast.IncDecStmt:
		return fallsThrough(ev.evalExpr(n.X))
	case *ast.SendStmt:
		return fallsThrough(seqEffect(ev.evalExpr(n.Chan), ev.evalExpr(n.Value)))
	case *ast.GoStmt:
		// The spawned body runs on another goroutine: only the argument
		// evaluation happens on this schedule.
		var parts []*Effect
		for _, a := range n.Call.Args {
			parts = append(parts, ev.evalExpr(a))
		}
		return fallsThrough(seqEffect(parts...))
	case *ast.DeferStmt:
		var parts []*Effect
		for _, a := range n.Call.Args {
			parts = append(parts, ev.evalExpr(a))
		}
		d := ev.callEffect(n.Call)
		if ev.condDepth > 0 {
			d = choiceEffect(d, emptyEffect)
		}
		ev.deferred = append(ev.deferred, d)
		return fallsThrough(seqEffect(parts...))
	case *ast.IfStmt:
		init := ev.evalStmt(n.Init)
		prefix := seqEffect(init.eff, ev.evalExpr(n.Cond))
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
		prefix := seqEffect(init.eff, ev.evalExpr(n.Tag))
		return ev.caseBranches(prefix, n.Body, true)
	case *ast.TypeSwitchStmt:
		init := ev.evalStmt(n.Init)
		assign := ev.evalStmt(n.Assign)
		return ev.caseBranches(seqEffect(init.eff, assign.eff), n.Body, true)
	case *ast.SelectStmt:
		return ev.caseBranches(emptyEffect, n.Body, false)
	case *ast.ForStmt:
		init := ev.evalStmt(n.Init)
		condE := ev.evalExpr(n.Cond)
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
		xEff := ev.evalExpr(n.X)
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
			var parts []*Effect
			for _, e := range cc.List {
				parts = append(parts, ev.evalExpr(e))
			}
			f := ev.evalStmts(cc.Body)
			f.eff = seqEffect(seqEffect(parts...), f.eff)
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

// evalExpr computes the effect of evaluating an expression, in
// evaluation order (arguments before the call they feed).
func (ev *effEval) evalExpr(e ast.Expr) *Effect {
	switch e := e.(type) {
	case nil:
		return emptyEffect
	case *ast.CallExpr:
		var parts []*Effect
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.SelectorExpr:
			parts = append(parts, ev.evalExpr(fun.X))
		case *ast.Ident, *ast.FuncLit:
			// no receiver sub-expression to evaluate
		default:
			parts = append(parts, ev.evalExpr(e.Fun))
		}
		for _, a := range e.Args {
			parts = append(parts, ev.evalExpr(a))
		}
		parts = append(parts, ev.callEffect(e))
		return seqEffect(parts...)
	case *ast.FuncLit:
		return emptyEffect // a definition communicates nothing
	case *ast.ParenExpr:
		return ev.evalExpr(e.X)
	case *ast.UnaryExpr:
		return ev.evalExpr(e.X)
	case *ast.StarExpr:
		return ev.evalExpr(e.X)
	case *ast.BinaryExpr:
		return seqEffect(ev.evalExpr(e.X), ev.evalExpr(e.Y))
	case *ast.SelectorExpr:
		return ev.evalExpr(e.X)
	case *ast.IndexExpr:
		return seqEffect(ev.evalExpr(e.X), ev.evalExpr(e.Index))
	case *ast.IndexListExpr:
		return ev.evalExpr(e.X)
	case *ast.SliceExpr:
		return seqEffect(ev.evalExpr(e.X), ev.evalExpr(e.Low), ev.evalExpr(e.High), ev.evalExpr(e.Max))
	case *ast.TypeAssertExpr:
		return ev.evalExpr(e.X)
	case *ast.CompositeLit:
		var parts []*Effect
		for _, el := range e.Elts {
			parts = append(parts, ev.evalExpr(el))
		}
		return seqEffect(parts...)
	case *ast.KeyValueExpr:
		return seqEffect(ev.evalExpr(e.Key), ev.evalExpr(e.Value))
	}
	return emptyEffect
}

// callEffect resolves the effect contributed by one call: a collective
// atom for pcu built-ins and doc-marked collectives, the callee's
// inferred effect for resolved in-module functions, a send/reader atom
// for buffer operations, ε otherwise.
func (ev *effEval) callEffect(call *ast.CallExpr) *Effect {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return ev.sub().funcBody(lit.Body)
	}
	pass := &Pass{Package: ev.p}
	fn := calleeFunc(ev.p.Info, call)
	// The pcu run drivers execute their final function argument on the
	// spawned world's schedule; checked before the doc-mark test because
	// RunOpt's doc mentions the collective watchdog.
	if runDriver(fn) && len(call.Args) > 0 {
		return ev.bodyArgEffect(call.Args[len(call.Args)-1])
	}
	if fn != nil && ev.facts != nil && ev.facts.directCollective(fn) {
		return opEffect(fn.Name(), true, call.Pos())
	}
	if fn != nil && ev.g != nil {
		if n := ev.g.nodes[keyOfFunc(fn)]; n != nil && n.effect != nil {
			return n.effect
		}
	}
	switch {
	case isPhaseBufferCall(pass, call), isBufferPack(pass, call):
		return opEffect("send", false, call.Pos())
	case isReaderDone(pass, call):
		return opEffect("reader.Done", false, call.Pos())
	}
	return emptyEffect
}

// sub derives a fresh evaluator for a nested body, inheriting the
// graph (deferred effects must not leak across bodies).
func (ev *effEval) sub() *effEval {
	s := newEffEval(ev.p, ev.facts)
	s.g = ev.g
	return s
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
		return ev.sub().funcBody(lit.Body)
	}
	if fn := exprFunc(ev.p.Info, ast.Unparen(arg)); fn != nil && ev.g != nil {
		if n := ev.g.nodes[keyOfFunc(fn)]; n != nil && n.effect != nil {
			return n.effect
		}
	}
	return emptyEffect
}

// exprFunc resolves an expression used as a function value to the
// declared *types.Func it names, or nil.
func exprFunc(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[e].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[e.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isReaderDone reports a Done() call on a *pcu.Reader — the reader
// lifecycle atom.
func isReaderDone(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	return isReaderPtr(p.TypeOf(sel.X))
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
			// facts.graph is not assigned until buildCallGraph returns, so
			// wire this graph into the evaluator directly.
			ev := newEffEval(n.pkg, facts)
			ev.g = g
			n.effect = ev.funcBody(n.decl.Body)
			return
		}
	}
	// Cyclic SCC (mutual or self recursion): widen. Collect every atom
	// the cycle can perform — direct collectives, alphabets of
	// out-of-cycle callees, direct sends/reader events — and wrap them
	// in Loop(Choice(...)): some indeterminate repetition.
	member := map[funcKey]bool{}
	for _, k := range comp {
		member[k] = true
	}
	sort.Slice(comp, func(i, j int) bool { return comp[i].less(comp[j]) })
	atomSet := map[string]*Effect{}
	addAtom := func(e *Effect) {
		if _, ok := atomSet[e.key]; !ok {
			atomSet[e.key] = e
		}
	}
	for _, k := range comp {
		n := g.nodes[k]
		pass := &Pass{Package: n.pkg}
		ast.Inspect(n.decl.Body, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(n.pkg.Info, call)
			if runDriver(fn) || (fn != nil && facts.directCollective(fn)) {
				// A run driver's body argument is dynamic inside a widened
				// cycle, so it is an opaque atom like a collective.
				addAtom(opEffect(fn.Name(), true, call.Pos()))
				return true
			}
			if fn != nil {
				if cn, ok := g.nodes[keyOfFunc(fn)]; ok && !member[cn.key] && cn.effect != nil {
					for _, a := range alphabet(cn.effect) {
						addAtom(a)
					}
					return true
				}
			}
			switch {
			case isPhaseBufferCall(pass, call), isBufferPack(pass, call):
				addAtom(opEffect("send", false, call.Pos()))
			case isReaderDone(pass, call):
				addAtom(opEffect("reader.Done", false, call.Pos()))
			}
			return true
		})
	}
	eff := emptyEffect
	if len(atomSet) > 0 {
		keys := make([]string, 0, len(atomSet))
		for k := range atomSet {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		kids := make([]*Effect, len(keys))
		for i, k := range keys {
			kids[i] = atomSet[k]
		}
		eff = loopEffect(choiceEffect(kids...))
	}
	for _, k := range comp {
		g.nodes[k].effect = eff
		g.nodes[k].effWidened = true
	}
}
