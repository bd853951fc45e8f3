package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RankDiv tracks rank-derived values through dataflow — arithmetic on
// Ctx.Rank(), helpers whose return values derive from it (the
// interprocedural rank-return summaries in summary.go), rank-indexed
// data, variables assigned from any of those — and flags collectives
// and loop bounds that are control-dependent on them without a
// reconciling collective. "Reconciling" is decided by the effect engine
// (effects.go): a guard whose arms have equal collective-schedule
// languages is rank-safe however rank-derived its condition is.
//
// The lexical forms (a bare Rank() call or a variable assigned directly
// from one in the guard condition) are collseq's territory and are
// skipped here; rankdiv exists for the flows that lexical matching
// cannot see. Findings overlapping another analyzer at the same
// position are collapsed by the position-level dedup in Run.
var RankDiv = &Analyzer{
	Name: "rankdiv",
	Doc:  "track rank-derived values into guards of collectives and loop bounds",
	Run:  runRankDiv,
}

func runRankDiv(p *Pass) {
	for _, body := range funcBodies(p) {
		w := &divWalker{
			p:        p,
			rankVars: collectRankVars(p, body),
			taint:    rankTaint(p, body, p.Facts),
			seen:     map[token.Pos]bool{},
		}
		w.walkStmts(body.List, nil)
	}
}

type divWalker struct {
	p        *Pass
	rankVars map[any]bool
	taint    map[types.Object]*taintInfo
	seen     map[token.Pos]bool // collective calls already reported
}

// taintedCond reports whether the condition is rank-derived through
// dataflow only — rankdiv's territory; lexically rank-dependent
// conditions belong to collseq.
func (w *divWalker) taintedCond(e ast.Expr) (string, bool) {
	if e == nil || lexicalRankDep(w.p, e, w.rankVars) {
		return "", false
	}
	return rankCause(w.p, e, w.taint, w.p.Facts)
}

func (w *divWalker) walkStmts(list []ast.Stmt, konts [][]ast.Stmt) {
	for i, s := range list {
		w.walkStmt(s, append([][]ast.Stmt{list[i+1:]}, konts...))
	}
}

func (w *divWalker) walkStmt(s ast.Stmt, konts [][]ast.Stmt) {
	switch n := s.(type) {
	case *ast.BlockStmt:
		w.walkStmts(n.List, konts)
	case *ast.LabeledStmt:
		w.walkStmt(n.Stmt, konts)
	case *ast.IfStmt:
		if cause, ok := w.taintedCond(n.Cond); ok {
			if _, diverged := divergeIf(w.p, n, konts); diverged {
				w.reportCollectives(n.Body, cause)
				if n.Else != nil {
					w.reportCollectives(n.Else, cause)
				}
			}
		}
		w.walkStmts(n.Body.List, konts)
		if n.Else != nil {
			w.walkStmt(n.Else, konts)
		}
	case *ast.SwitchStmt:
		cause, tainted := w.taintedCond(n.Tag)
		if !tainted {
			for _, stmt := range n.Body.List {
				if cc, ok := stmt.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						if c, ok := w.taintedCond(e); ok {
							cause, tainted = c, true
						}
					}
				}
			}
		}
		if tainted {
			if _, diverged := divergeSwitch(w.p, n.Body, konts); diverged {
				w.reportCollectives(n.Body, cause)
			}
		}
		for _, stmt := range n.Body.List {
			if cc, ok := stmt.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, konts)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, stmt := range n.Body.List {
			if cc, ok := stmt.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, konts)
			}
		}
	case *ast.SelectStmt:
		for _, stmt := range n.Body.List {
			if cc, ok := stmt.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, konts)
			}
		}
	case *ast.ForStmt:
		cause, tainted := w.taintedCond(n.Cond)
		if !tainted {
			cause, tainted = w.taintedCond(rangeInitBound(n))
		}
		if tainted {
			if ops := loopBodyCollectives(w.p, n.Body); len(ops) != 0 {
				w.p.Reportf(n.For,
					"loop bound is rank-derived (%s) and the body runs collective %s; ranks iterate different numbers of times and deadlock",
					cause, strings.Join(ops, "·"))
			}
		}
		w.walkStmts(n.Body.List, nil)
	case *ast.RangeStmt:
		if cause, ok := w.taintedCond(n.X); ok {
			if ops := loopBodyCollectives(w.p, n.Body); len(ops) != 0 {
				w.p.Reportf(n.For,
					"loop bound is rank-derived (%s) and the body runs collective %s; ranks iterate different numbers of times and deadlock",
					cause, strings.Join(ops, "·"))
			}
		}
		w.walkStmts(n.Body.List, nil)
	}
}

// reportCollectives flags every collective call lexically inside the
// divergent arm, with the interprocedural witness chain when the
// collective hides behind helpers. Function literals are separate
// execution contexts and are skipped.
func (w *divWalker) reportCollectives(n ast.Node, cause string) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn := calleeFunc(w.p.Info, c)
			if fn == nil || w.seen[c.Pos()] {
				return true
			}
			chain, ok := w.p.Facts.CollectiveWitness(fn)
			if !ok {
				return true
			}
			w.seen[c.Pos()] = true
			if chain == nil {
				w.p.Reportf(c.Pos(),
					"collective %s is control-dependent on a rank-derived value (%s) without a reconciling collective; ranks disagree on entering it",
					fn.Name(), cause)
			} else {
				w.p.Reportf(c.Pos(),
					"collective reached through %s is control-dependent on a rank-derived value (%s) without a reconciling collective; ranks disagree on entering it",
					witnessChain(fn, chain), cause)
			}
		}
		return true
	})
}

// ---- rank-taint dataflow, shared with collseq ----

// taintInfo records how a local variable came to hold a rank-derived
// value.
type taintInfo struct {
	how string
	pos token.Pos
}

// rankTaint computes the local variables of one function body that hold
// rank-derived values, iterating assignment chains to a (bounded)
// fixpoint. Sources: Ctx.Rank() calls, calls to functions whose return
// derives from rank (Facts.RankReturn), and uses of already-tainted
// variables — which covers arithmetic on rank and rank-indexed data,
// since containment is checked over whole right-hand sides. Function
// literals are separate contexts and are not descended into.
func rankTaint(p *Pass, body *ast.BlockStmt, facts *Facts) map[types.Object]*taintInfo {
	taint := map[types.Object]*taintInfo{}
	mark := func(id *ast.Ident, ti *taintInfo) bool {
		obj := identObj(p.Info, id)
		if obj == nil || taint[obj] != nil {
			return false
		}
		taint[obj] = ti
		return true
	}
	for round := 0; round < 16; round++ {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				switch {
				case len(n.Lhs) == len(n.Rhs):
					for i, rhs := range n.Rhs {
						cause, ok := rankCause(p, rhs, taint, facts)
						if !ok {
							continue
						}
						if id, isIdent := n.Lhs[i].(*ast.Ident); isIdent {
							if mark(id, &taintInfo{how: cause, pos: rhs.Pos()}) {
								changed = true
							}
						}
					}
				case len(n.Rhs) == 1:
					if cause, ok := rankCause(p, n.Rhs[0], taint, facts); ok {
						for _, lhs := range n.Lhs {
							if id, isIdent := lhs.(*ast.Ident); isIdent {
								if mark(id, &taintInfo{how: cause, pos: n.Rhs[0].Pos()}) {
									changed = true
								}
							}
						}
					}
				}
			case *ast.RangeStmt:
				if cause, ok := rankCause(p, n.X, taint, facts); ok {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, isIdent := e.(*ast.Ident); isIdent && id != nil {
							if mark(id, &taintInfo{how: "ranges over a value " + cause, pos: n.X.Pos()}) {
								changed = true
							}
						}
					}
				}
			case *ast.DeclStmt:
				gd, ok := n.Decl.(*ast.GenDecl)
				if !ok {
					return true
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, v := range vs.Values {
						cause, ok := rankCause(p, v, taint, facts)
						if !ok || i >= len(vs.Names) {
							continue
						}
						if mark(vs.Names[i], &taintInfo{how: cause, pos: v.Pos()}) {
							changed = true
						}
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

// rankCause reports whether the expression's value derives from the
// calling rank, and how — the first source found in source order.
// Values returned by collective calls are rank-uniform by construction
// (every rank runs the op and receives the reconciled result — an
// Allreduce sum, a gathered error set), so taint does not flow out of
// them: a guard on a collective's return value IS reconciled.
func rankCause(p *Pass, e ast.Expr, taint map[types.Object]*taintInfo, facts *Facts) (string, bool) {
	if e == nil {
		return "", false
	}
	cause := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if cause != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isRankCall(p, n) {
				cause = "computed from Ctx.Rank()"
				return false
			}
			if fn := calleeFunc(p.Info, n); fn != nil {
				if facts != nil && facts.IsCollective(fn) {
					return false // reconciled: same value on every rank
				}
				if via, ok := facts.RankReturn(fn); ok {
					cause = fmt.Sprintf("returned by %s", witnessChain(fn, via))
					return false
				}
			}
		case *ast.Ident:
			if obj := p.Info.Uses[n]; obj != nil {
				if ti := taint[obj]; ti != nil {
					cause = fmt.Sprintf("via %s, %s", n.Name, ti.how)
					return false
				}
			}
		}
		return true
	})
	return cause, cause != ""
}

// lexicalRankDep reports whether the expression is rank-dependent in
// the lexical sense: it contains a Rank() call on a *pcu.Ctx or
// references a variable assigned directly from one.
func lexicalRankDep(p *Pass, e ast.Expr, rankVars map[any]bool) bool {
	if e == nil {
		return false
	}
	dep := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isRankCall(p, n) {
				dep = true
			}
		case *ast.Ident:
			if obj := p.Info.Uses[n]; obj != nil && rankVars[obj] {
				dep = true
			}
		}
		return !dep
	})
	return dep
}
