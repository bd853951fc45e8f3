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
		// A `go` statement's call is checked by the escape scan; the
		// interprocedural call check skips it so a `go helper(ctx)` is
		// reported once, not twice. Inspect visits that call right after
		// its statement.
		var goCall *ast.CallExpr
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				goCall = g.Call
			}
			if call, ok := n.(*ast.CallExpr); ok && call != goCall {
				checkCallLeaks(p, call)
			}
			escapesAt(p.Info, n, func(x escape) {
				if !isCtxPtr(p.TypeOf(x.val)) {
					return
				}
				switch x.shape {
				case escGoArg:
					p.Reportf(x.val.Pos(), "*pcu.Ctx passed to a goroutine; "+confined)
				case escCapture:
					p.Reportf(x.val.Pos(), "*pcu.Ctx %q captured by goroutine literal; "+confined, x.val.(*ast.Ident).Name)
				case escSend:
					p.Reportf(x.val.Pos(), "*pcu.Ctx sent on a channel; "+confined)
				case escStore:
					p.Reportf(x.val.Pos(), "*pcu.Ctx stored in package-level state %q; "+confined, x.into.Name)
				}
			})
			return true
		})
	}
}

const confined = "a Ctx is confined to the goroutine it was handed to"

// The shapes of an escape site: how a value leaves the goroutine running
// its function.
const (
	escGoArg   = iota // an argument of a `go` statement
	escGoFunc         // the function a `go` statement starts
	escCapture        // a variable a goroutine literal captures
	escSend           // a value sent on a channel
	escStore          // a value stored in package-level state
)

// escape is one escape site: val leaves by shape; into is the
// package-level variable of an escStore.
type escape struct {
	shape int
	val   ast.Expr
	into  *ast.Ident
}

// escapesAt is the one Ctx-escape scan: it calls esc for each site at
// which node n hands a value to another goroutine. Argument, send and
// store sites carry *pcu.Ctx values; the function a `go` statement
// starts and the variables its literal captures come whatever their
// type, for the summary's async parameters. ctxescape reports every
// Ctx site; the summary keeps the sites whose value is a parameter.
func escapesAt(info *types.Info, n ast.Node, esc func(escape)) {
	switch n := n.(type) {
	case *ast.GoStmt:
		for _, arg := range n.Call.Args {
			if isCtxPtr(info.TypeOf(arg)) {
				esc(escape{shape: escGoArg, val: arg})
			}
		}
		esc(escape{shape: escGoFunc, val: n.Call.Fun})
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			for _, id := range captures(info, lit) {
				esc(escape{shape: escCapture, val: id})
			}
		}
	case *ast.SendStmt:
		if isCtxPtr(info.TypeOf(n.Value)) {
			esc(escape{shape: escSend, val: n.Value})
		}
	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			if len(n.Lhs) != len(n.Rhs) {
				break
			}
			if root := rootIdent(n.Lhs[i]); root != nil && isCtxPtr(info.TypeOf(rhs)) && isPkgLevelVar(info, root) {
				esc(escape{escStore, rhs, root})
			}
		}
	case *ast.ValueSpec:
		// Package-level `var x = ctx` declarations.
		for i, name := range n.Names {
			if i < len(n.Values) && isCtxPtr(info.TypeOf(n.Values[i])) && isPkgLevelVar(info, name) {
				esc(escape{escStore, n.Values[i], name})
			}
		}
	}
}

// checkCallLeaks applies the interprocedural summaries at an ordinary
// call site: a Ctx argument bound to a parameter the callee leaks to
// another goroutine (directly or through its own callees) escapes just
// as surely as a direct `go` statement, and so does a Ctx captured by a
// function literal handed to a parameter the callee runs asynchronously.
func checkCallLeaks(p *Pass, call *ast.CallExpr) {
	fn := funcOf(p.Info, call.Fun)
	if fn == nil {
		return
	}
	for ai, arg := range call.Args {
		pi := calleeParamIndex(fn, ai)
		if pi < 0 {
			continue
		}
		if isCtxPtr(p.TypeOf(arg)) {
			if how := p.Facts.summary(fn).leak[pi]; how != "" {
				p.Reportf(arg.Pos(), "*pcu.Ctx passed to %s, which %s; "+confined, fn.Name(), how)
			}
			continue
		}
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		how := p.Facts.summary(fn).async[pi]
		if !ok || how == "" {
			continue
		}
		for _, id := range captures(p.Info, lit) {
			if isCtxPtr(p.TypeOf(id)) {
				p.Reportf(id.Pos(),
					"*pcu.Ctx %q captured by a function literal passed to %s, which %s; "+confined,
					id.Name, fn.Name(), how)
			}
		}
	}
}

// captures returns the identifiers inside lit that are free-variable
// uses of a variable declared outside the literal.
func captures(info *types.Info, lit *ast.FuncLit) []*ast.Ident {
	var ids []*ast.Ident
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		// Fields are reached through the struct value, not captured on
		// their own; their declaration position lies in another scope
		// entirely, so the extent test below would misread them.
		if ok && !obj.IsField() && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
			ids = append(ids, id)
		}
		return true
	})
	return ids
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
