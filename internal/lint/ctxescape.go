package lint

import (
	"go/ast"
	"go/types"
)

// CtxEscape enforces goroutine confinement of *pcu.Ctx: a Ctx must only
// be used by the goroutine it was handed to (internal/pcu/world.go). A
// Ctx that is captured by a `go func` literal, passed as an argument in
// a `go` statement, stored in a package-level variable, or sent on a
// channel can be observed by another goroutine, which breaks the
// synchronization contract of barriers, collectives and exchanges.
var CtxEscape = &Analyzer{
	Name: "ctxescape",
	Doc:  "detect *pcu.Ctx values escaping their goroutine",
	Run:  runCtxEscape,
}

func runCtxEscape(p *Pass) {
	for _, file := range p.Files {
		// Calls that are the operand of a `go` statement are handled by
		// checkGoStmt; the interprocedural call check skips them so a
		// `go helper(ctx)` is reported once, not twice.
		goCalls := map[*ast.CallExpr]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				goCalls[g.Call] = true
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoStmt(p, n)
			case *ast.CallExpr:
				if !goCalls[n] {
					checkCallLeaks(p, n)
				}
			case *ast.SendStmt:
				if isCtxPtr(p.TypeOf(n.Value)) {
					p.Reportf(n.Value.Pos(),
						"*pcu.Ctx sent on a channel; a Ctx is confined to the goroutine it was handed to")
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if len(n.Rhs) != len(n.Lhs) {
						break
					}
					if !isCtxPtr(p.TypeOf(n.Rhs[i])) {
						continue
					}
					if root := rootIdent(lhs); root != nil && isPkgLevelVar(p.Info, root) {
						p.Reportf(n.Rhs[i].Pos(),
							"*pcu.Ctx stored in package-level state %q; a Ctx is confined to the goroutine it was handed to", root.Name)
					}
				}
			case *ast.ValueSpec:
				// Package-level `var x = ctx` declarations.
				for i, name := range n.Names {
					if i < len(n.Values) && isCtxPtr(p.TypeOf(n.Values[i])) && isPkgLevelVar(p.Info, name) {
						p.Reportf(n.Values[i].Pos(),
							"*pcu.Ctx stored in package-level state %q; a Ctx is confined to the goroutine it was handed to", name.Name)
					}
				}
			}
			return true
		})
	}
}

// checkCallLeaks applies the interprocedural summaries at an ordinary
// call site: a Ctx argument bound to a parameter the callee leaks to
// another goroutine (directly or through its own callees) escapes just
// as surely as a direct `go` statement, and so does a Ctx captured by a
// function literal handed to a parameter the callee runs asynchronously.
func checkCallLeaks(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return
	}
	for ai, arg := range call.Args {
		pi := calleeParamIndex(fn, ai)
		if pi < 0 {
			continue
		}
		if isCtxPtr(p.TypeOf(arg)) {
			if how, ok := p.Facts.LeakedCtxParam(fn, pi); ok {
				p.Reportf(arg.Pos(),
					"*pcu.Ctx passed to %s, which %s; a Ctx is confined to the goroutine it was handed to",
					fn.Name(), how)
			}
			continue
		}
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			how, ok := p.Facts.AsyncParam(fn, pi)
			if !ok {
				continue
			}
			for _, id := range ctxCaptures(p, lit) {
				p.Reportf(id.Pos(),
					"*pcu.Ctx %q captured by a function literal passed to %s, which %s; a Ctx is confined to the goroutine it was handed to",
					id.Name, fn.Name(), how)
			}
		}
	}
}

// ctxCaptures returns the identifiers inside lit that are free-variable
// uses of a *pcu.Ctx declared outside the literal.
func ctxCaptures(p *Pass, lit *ast.FuncLit) []*ast.Ident {
	var ids []*ast.Ident
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[id].(*types.Var)
		// Fields are reached through the struct value, not captured on
		// their own; their declaration position lies in another scope
		// entirely, so the extent test below would misread them.
		if !ok || obj.IsField() || !isCtxPtr(obj.Type()) {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// checkGoStmt flags a Ctx that crosses into a spawned goroutine, either
// as a call argument or as a free variable of a function literal.
func checkGoStmt(p *Pass, g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if isCtxPtr(p.TypeOf(arg)) {
			p.Reportf(arg.Pos(),
				"*pcu.Ctx passed to a goroutine; a Ctx is confined to the goroutine it was handed to")
		}
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		for _, id := range ctxCaptures(p, lit) {
			p.Reportf(id.Pos(),
				"*pcu.Ctx %q captured by goroutine literal; a Ctx is confined to the goroutine it was handed to", id.Name)
		}
	}
}

// rootIdent returns the base identifier of an lvalue expression
// (x, x.f, x[i], x.f[i].g, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isPkgLevelVar(info *types.Info, id *ast.Ident) bool {
	v, ok := identObj(info, id).(*types.Var)
	if !ok {
		return false
	}
	pkg := v.Pkg()
	return pkg != nil && pkg.Scope().Lookup(v.Name()) == v
}
