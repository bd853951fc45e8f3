package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// CollSeq proves that rank-dependent control flow yields rank-uniform
// collective schedules. The question is semantic, not lexical ("is a
// collective under a rank guard?" misfires on reconciled branches):
// for every branch whose condition depends on the calling rank, do both
// arms — each composed with the rest of the function, so early-return
// spellings are handled — run *equal* sequences of collective
// operations? Arms are compared as regular languages of effect terms
// (effects.go); a mismatch is reported with the minimal divergent
// witness: the shortest collective prefix after which one path can do
// something the other cannot. Loops whose iteration count is
// rank-dependent are checked against zero iterations: their bodies must
// have an empty collective schedule.
//
// Rank dependence is one dataflow (rankTaint): Rank() calls and every
// value derived from them — arithmetic on rank, rank-returning helpers,
// rank-indexed data, assignment chains, assignments inside nested
// function literals. Reports nest innermost-first: if a nested branch
// already diverged, the enclosing one is not re-reported.
var CollSeq = &Analyzer{
	Name: "collseq",
	Doc:  "prove rank-dependent branches and loops have rank-uniform collective schedules",
	Run:  runCollSeq,
}

func runCollSeq(p *Pass) {
	for _, body := range funcBodies(p) {
		w := &seqWalker{p: p, taint: rankTaint(p, body)}
		w.walkStmts(body.List, nil)
	}
}

// funcBodies collects every function body in the package — declarations
// and function literals — each analyzed as its own execution context.
func funcBodies(p *Pass) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					bodies = append(bodies, n.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, n.Body)
			}
			return true
		})
	}
	return bodies
}

type seqWalker struct {
	p     *Pass
	taint map[types.Object]bool
}

func (w *seqWalker) rankDep(e ast.Expr) bool { return rankDerived(w.p, e, w.taint) }

// walkStmts traverses a statement list; konts is the continuation
// stack — the statement tails that run after the current region
// completes, innermost first, cut at loop and function boundaries.
// Returns whether anything was reported in the subtree.
func (w *seqWalker) walkStmts(list []ast.Stmt, konts [][]ast.Stmt) bool {
	reported := false
	for i, s := range list {
		sk := append([][]ast.Stmt{list[i+1:]}, konts...)
		if w.walkStmt(s, sk) {
			reported = true
		}
	}
	return reported
}

// walkStmt handles one statement; konts are the tails running after it.
func (w *seqWalker) walkStmt(s ast.Stmt, konts [][]ast.Stmt) bool {
	switch n := s.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(n.List, konts)
	case *ast.LabeledStmt:
		return w.walkStmt(n.Stmt, konts)
	case *ast.IfStmt:
		sub := w.walkStmts(n.Body.List, konts)
		if n.Else != nil {
			if w.walkStmt(n.Else, konts) {
				sub = true
			}
		}
		if sub || !w.rankDep(n.Cond) {
			return sub
		}
		witness, diverged := divergeIf(w.p, n, konts)
		if diverged {
			w.p.Reportf(n.If,
				"rank-dependent branch yields divergent collective schedules: %s; every rank must run the same collective sequence",
				witness)
			return true
		}
		return false
	case *ast.SwitchStmt:
		sub := false
		for _, stmt := range n.Body.List {
			if cc, ok := stmt.(*ast.CaseClause); ok && w.walkStmts(cc.Body, konts) {
				sub = true
			}
		}
		dep := w.rankDep(n.Tag)
		for _, stmt := range n.Body.List {
			if cc, ok := stmt.(*ast.CaseClause); ok && !dep {
				dep = slices.ContainsFunc(cc.List, w.rankDep)
			}
		}
		if sub || !dep {
			return sub
		}
		witness, diverged := divergeSwitch(w.p, n.Body, konts)
		if diverged {
			w.p.Reportf(n.Switch,
				"rank-dependent switch yields divergent collective schedules: %s; every rank must run the same collective sequence",
				witness)
			return true
		}
		return false
	case *ast.TypeSwitchStmt:
		sub := false
		for _, stmt := range n.Body.List {
			if cc, ok := stmt.(*ast.CaseClause); ok && w.walkStmts(cc.Body, konts) {
				sub = true
			}
		}
		return sub
	case *ast.SelectStmt:
		sub := false
		for _, stmt := range n.Body.List {
			if cc, ok := stmt.(*ast.CommClause); ok && w.walkStmts(cc.Body, konts) {
				sub = true
			}
		}
		return sub
	case *ast.ForStmt:
		sub := w.walkStmts(n.Body.List, nil)
		if sub || !(w.rankDep(n.Cond) || w.rankDep(rangeInitBound(n))) {
			return sub
		}
		return w.loopCheck(n.For, n.Body)
	case *ast.RangeStmt:
		sub := w.walkStmts(n.Body.List, nil)
		if sub || !w.rankDep(n.X) {
			return sub
		}
		return w.loopCheck(n.For, n.Body)
	}
	return false
}

// rangeInitBound extracts the init expression of a classic counted loop
// (`for i := lo; ...`) so a rank-derived starting point counts as a
// rank-dependent trip count too.
func rangeInitBound(n *ast.ForStmt) ast.Expr {
	as, ok := n.Init.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return nil
	}
	return as.Rhs[0]
}

// loopCheck compares a rank-dependent loop's body schedule against zero
// iterations: any collective in the body means ranks iterating
// different numbers of times enter different schedules.
func (w *seqWalker) loopCheck(pos token.Pos, body *ast.BlockStmt) bool {
	ops := loopBodyCollectives(w.p, body)
	if len(ops) == 0 {
		return false
	}
	w.p.Reportf(pos,
		"loop iteration count is rank-dependent but the body runs collective %s; ranks iterating fewer times miss the collective and deadlock",
		strings.Join(ops, "·"))
	return true
}

// loopBodyCollectives returns the sorted collective atoms reachable in
// a loop body (empty when the body's collective schedule is ε, i.e.
// equal to zero iterations).
func loopBodyCollectives(p *Pass, body *ast.BlockStmt) []string {
	f := newEffEval(p.Package, p.Facts).evalStmts(body.List)
	paths := append([]*Effect{}, f.exits...)
	paths = append(paths, f.eff)
	var ops []string
	for _, a := range alphabet(choiceEffect(paths...)) {
		ops = append(ops, a.op)
	}
	return ops
}

// divergeIf compares the two arms of an if statement, each composed
// with the continuation tails, as collective-schedule languages.
func divergeIf(p *Pass, n *ast.IfStmt, konts [][]ast.Stmt) (string, bool) {
	thenLang := blockLang(p, n.Body.List, konts)
	var elseLang *Effect
	switch e := n.Else.(type) {
	case nil:
		elseLang = tailLang(p, konts)
	case *ast.BlockStmt:
		elseLang = blockLang(p, e.List, konts)
	case *ast.IfStmt:
		elseLang = blockLang(p, []ast.Stmt{e}, konts)
	default:
		elseLang = tailLang(p, konts)
	}
	witness, equal := schedDiverge(thenLang, elseLang, "true path", "false path")
	return witness, !equal
}

// divergeSwitch compares every case arm (and the implicit no-match path
// when there is no default) against the first arm.
func divergeSwitch(p *Pass, body *ast.BlockStmt, konts [][]ast.Stmt) (string, bool) {
	type arm struct {
		label string
		lang  *Effect
	}
	var arms []arm
	hasDefault := false
	caseIdx := 0
	for _, stmt := range body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		label := fmt.Sprintf("case-%d path", caseIdx)
		if cc.List == nil {
			label = "default path"
			hasDefault = true
		}
		caseIdx++
		arms = append(arms, arm{label, blockLang(p, cc.Body, konts)})
	}
	if !hasDefault {
		arms = append(arms, arm{"no-match path", tailLang(p, konts)})
	}
	for i := 1; i < len(arms); i++ {
		if witness, equal := schedDiverge(arms[0].lang, arms[i].lang, arms[0].label, arms[i].label); !equal {
			return witness, true
		}
	}
	return "", false
}

// blockLang computes the collective-schedule language of executing the
// given statements and then the continuation tails; exit paths
// (return/panic) inside the block skip the tails.
func blockLang(p *Pass, stmts []ast.Stmt, konts [][]ast.Stmt) *Effect {
	f := newEffEval(p.Package, p.Facts).evalStmts(stmts)
	paths := append([]*Effect{}, f.exits...)
	if f.falls {
		paths = append(paths, seqEffect(f.eff, tailLang(p, konts)))
	}
	if len(paths) == 0 {
		return emptyEffect
	}
	return choiceEffect(paths...)
}

// tailLang computes the language of the continuation stack alone.
func tailLang(p *Pass, konts [][]ast.Stmt) *Effect {
	eff := emptyEffect
	var paths []*Effect
	falls := true
	for _, tail := range konts {
		f := newEffEval(p.Package, p.Facts).evalStmts(tail)
		for _, x := range f.exits {
			paths = append(paths, seqEffect(eff, x))
		}
		if !f.falls {
			falls = false
			break
		}
		eff = seqEffect(eff, f.eff)
	}
	if falls {
		paths = append(paths, eff)
	}
	return choiceEffect(paths...)
}

// ---- rank-taint dataflow ----

// rankTaint computes the local variables of one function body that hold
// rank-derived values, iterating assignment chains to a (bounded)
// fixpoint. Sources: Ctx.Rank() calls, calls to functions whose return
// derives from rank (the summary's retRank), and uses of already-tainted
// variables — which covers arithmetic on rank and rank-indexed data,
// since containment is checked over whole right-hand sides. The scan
// descends into function literals: `func() { r = c.Rank() }()` taints
// the enclosing body's r.
func rankTaint(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	taint := map[types.Object]bool{}
	changed := false
	mark := func(id *ast.Ident, from ast.Expr) {
		obj := identObj(p.Info, id)
		if obj != nil && !taint[obj] && rankDerived(p, from, taint) {
			taint[obj] = true
			changed = true
		}
	}
	for round := 0; round < 16; round++ {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					switch {
					case !ok:
					case len(n.Lhs) == len(n.Rhs):
						mark(id, n.Rhs[i])
					case len(n.Rhs) == 1:
						mark(id, n.Rhs[0])
					}
				}
			case *ast.RangeStmt:
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						mark(id, n.X)
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i < len(n.Names) {
						mark(n.Names[i], v)
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return taint
}

// rankDerived reports whether the expression's value derives from the
// calling rank. Values returned by collective calls are rank-uniform by
// construction (every rank runs the op and receives the reconciled
// result — an Allreduce sum, a gathered error set), so taint does not
// flow out of them: a guard on a collective's return value IS
// reconciled.
func rankDerived(p *Pass, e ast.Expr, taint map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if found { // a later sibling call must not clear a match
				return false
			}
			if isRankCall(p, n) {
				found = true
			} else if fn := funcOf(p.Info, n.Fun); fn != nil {
				if p.Facts.IsCollective(fn) {
					return false // reconciled: same value on every rank
				}
				found = p.Facts.summary(fn).retRank
			}
		case *ast.Ident:
			if obj := p.Info.Uses[n]; obj != nil && taint[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
