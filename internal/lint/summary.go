package lint

// The interprocedural layer of pumi-vet: a callgraph over every loaded
// package with per-function summaries propagated to a fixpoint. The
// per-function analyzers stay lexical; they consult the summaries
// through Facts, so violations hidden behind helpers are caught at the
// call site:
//
//   - transitively collective: the function always reaches a collective
//     op (directly or through callees); maporder names the witness
//     chain down to the collective in its findings.
//   - leaking ctx params: a *pcu.Ctx parameter the function hands to
//     another goroutine, sends on a channel, stores in package state,
//     or forwards to a callee that does; ctxescape flags passing a Ctx
//     into such a parameter.
//   - async func params: a function-typed parameter the function starts
//     on another goroutine; ctxescape flags a Ctx-capturing literal
//     passed into such a parameter.
//   - sends: the function contributes to communication (packs a phase
//     buffer, runs an exchange, enters a collective, or calls a callee
//     that does); maporder flags map-range bodies that reach one.
//
// Summaries include calls made inside nested function literals
// (may-execute over-approximation): a helper that only *constructs* a
// collective closure is treated as collective itself, which errs on
// the side of reporting for the invariants at stake here.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// witnessChain renders a summary call chain for diagnostics: the called
// function followed by the recorded path down to the operation, e.g.
// "helper -> helper2 -> Barrier".
func witnessChain(fn *types.Func, chain []string) string {
	return strings.Join(append([]string{fn.Name()}, chain...), " -> ")
}

// callSite is one resolved call inside a function body.
type callSite struct {
	key  funcKey
	name string // callee display name
	fn   *types.Func
	// paramArgs: callee parameter index -> caller parameter index, for
	// arguments that are direct uses of the caller's own parameters.
	paramArgs map[int]int
}

// funcNode is the interprocedural summary of one function declaration.
type funcNode struct {
	key    funcKey
	pkg    *Package
	decl   *ast.FuncDecl
	calls  []*callSite
	params []types.Object

	// Monotone summary bits, closed under the callgraph by fixpoint.
	collective bool
	collVia    []string // call chain from here to the collective op
	sends      bool
	sendsVia   []string
	leak       map[int]string // ctx param index -> how it escapes
	async      map[int]string // func param index -> how it is started

	// Rank-return summary: the function's return value derives from the
	// calling rank (a Ctx.Rank() call, directly or through callees whose
	// returns do). retCalls lists the callees invoked inside return
	// statements, for the fixpoint propagation.
	retRank  bool
	retCalls []funcKey

	// The communication-effect term (see effects.go), inferred in
	// reverse-topological SCC order after the boolean fixpoint; atoms are
	// Go function names.
	effect *Effect
}

// callGraph indexes the funcNodes of all loaded packages.
type callGraph struct {
	nodes map[funcKey]*funcNode
	order []funcKey // deterministic fixpoint order
}

// node resolves a callee to its summary, or nil for functions outside
// the loaded set.
func (g *callGraph) node(fn *types.Func) *funcNode {
	if g == nil || fn == nil {
		return nil
	}
	return g.nodes[keyOfFunc(fn)]
}

// keyOfFunc derives the graph key of a *types.Func the same way
// buildCallGraph derives it from the declaration, so call sites and
// declarations meet even though the source importer re-checks packages
// independently.
func keyOfFunc(fn *types.Func) funcKey {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = namedName(sig.Recv().Type())
	}
	return funcKey{pkg, recv, fn.Name()}
}

// buildCallGraph scans every function declaration, records its direct
// properties and call sites, then propagates the summaries to a
// fixpoint.
func buildCallGraph(pkgs []*Package, facts *Facts) *callGraph {
	g := &callGraph{nodes: map[funcKey]*funcNode{}}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				n := newFuncNode(p, fd)
				g.nodes[n.key] = n
				g.order = append(g.order, n.key)
			}
		}
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].less(g.order[j]) })
	g.fixpoint(facts)
	g.inferEffects(facts)
	return g
}

func (k funcKey) less(o funcKey) bool {
	if k.pkg != o.pkg {
		return k.pkg < o.pkg
	}
	if k.recv != o.recv {
		return k.recv < o.recv
	}
	return k.name < o.name
}

func (k funcKey) String() string {
	if k.recv != "" {
		return k.recv + "." + k.name
	}
	return k.name
}

// newFuncNode computes the direct (intraprocedural) summary of one
// declaration: its call sites, direct sends, direct ctx-param leaks and
// directly started func params.
func newFuncNode(p *Package, fd *ast.FuncDecl) *funcNode {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv = recvTypeName(fd.Recv.List[0].Type)
	}
	n := &funcNode{
		key:   funcKey{pkgPathOf(p), recv, fd.Name.Name},
		pkg:   p,
		decl:  fd,
		leak:  map[int]string{},
		async: map[int]string{},
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				n.params = append(n.params, p.Info.Defs[name])
			}
			if len(field.Names) == 0 {
				n.params = append(n.params, nil) // unnamed param
			}
		}
	}
	pass := &Pass{Package: p}
	paramIndex := func(e ast.Expr) int {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return -1
		}
		for i, po := range n.params {
			if po != nil && po == obj {
				return i
			}
		}
		return -1
	}
	markGoroutine := func(call *ast.CallExpr) {
		// `go f(ctx)` / `go param(...)` / `go func(){ ... }()` — every
		// caller parameter reaching the spawned work escapes its
		// goroutine.
		for _, arg := range call.Args {
			if i := paramIndex(arg); i >= 0 && isCtxPtr(p.Info.TypeOf(arg)) {
				n.leak[i] = "passes it to a goroutine"
			}
		}
		if i := paramIndex(call.Fun); i >= 0 {
			n.async[i] = "starts it on a goroutine"
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(c ast.Node) bool {
				id, ok := c.(*ast.Ident)
				if !ok {
					return true
				}
				if i := paramIndex(id); i >= 0 {
					obj := n.params[i]
					if v, ok := obj.(*types.Var); ok && v.Pos() < lit.Pos() {
						if isCtxPtr(v.Type()) {
							n.leak[i] = "captures it in a goroutine literal"
						} else if _, isFn := v.Type().Underlying().(*types.Signature); isFn {
							n.async[i] = "runs it from a goroutine literal"
						}
					}
				}
				return true
			})
		}
	}
	ast.Inspect(fd.Body, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.GoStmt:
			markGoroutine(c.Call)
		case *ast.SendStmt:
			if i := paramIndex(c.Value); i >= 0 && isCtxPtr(p.Info.TypeOf(c.Value)) {
				n.leak[i] = "sends it on a channel"
			}
		case *ast.AssignStmt:
			if len(c.Lhs) == len(c.Rhs) {
				for i, rhs := range c.Rhs {
					pi := paramIndex(rhs)
					if pi < 0 || !isCtxPtr(p.Info.TypeOf(rhs)) {
						continue
					}
					if root := rootIdent(c.Lhs[i]); root != nil && isPkgLevelVar(p.Info, root) {
						n.leak[pi] = "stores it in package-level state"
					}
				}
			}
		case *ast.CallExpr:
			if !n.sends {
				switch {
				case isPhaseBufferCall(pass, c):
					n.sends, n.sendsVia = true, []string{"opens a To buffer"}
				case isExchangeCall(pass, c):
					n.sends, n.sendsVia = true, []string{"runs an exchange"}
				case isBufferPack(pass, c):
					n.sends, n.sendsVia = true, []string{"packs a communication buffer"}
				}
			}
			cs := &callSite{fn: calleeFunc(p.Info, c)}
			if cs.fn == nil {
				return true
			}
			cs.key = keyOfFunc(cs.fn)
			cs.name = cs.key.String()
			for ai, arg := range c.Args {
				pi := calleeParamIndex(cs.fn, ai)
				if pi < 0 {
					continue
				}
				if i := paramIndex(arg); i >= 0 {
					if cs.paramArgs == nil {
						cs.paramArgs = map[int]int{}
					}
					cs.paramArgs[pi] = i
				}
			}
			n.calls = append(n.calls, cs)
		}
		return true
	})
	// Rank-return scan: does a return statement's result expression
	// derive from Rank()? Record direct Rank() calls and, for the
	// fixpoint, the callees invoked inside results. Function literals
	// are pruned: a returned closure does not evaluate at return time.
	// (Caveat: flows through named results or locals assigned earlier
	// are not tracked; DESIGN.md §8.)
	ast.Inspect(fd.Body, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := c.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(r ast.Node) bool {
				if _, ok := r.(*ast.FuncLit); ok {
					return false
				}
				call, ok := r.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isRankCall(pass, call) {
					n.retRank = true
				} else if fn := calleeFunc(p.Info, call); fn != nil {
					n.retCalls = append(n.retCalls, keyOfFunc(fn))
				}
				return true
			})
		}
		return true
	})
	return n
}

// isBufferPack reports a pack-method call on a *pcu.Buffer.
func isBufferPack(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !packMethods[sel.Sel.Name] {
		return false
	}
	return isBufferPtr(p.Info.TypeOf(sel.X))
}

// calleeParamIndex maps a call argument index to the callee's declared
// parameter index, clamping variadic tails.
func calleeParamIndex(fn *types.Func, argIndex int) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return -1
	}
	if argIndex >= sig.Params().Len() {
		if sig.Variadic() {
			return sig.Params().Len() - 1
		}
		return -1
	}
	return argIndex
}

// fixpoint propagates collective/sends/leak/async summaries along call
// edges until stable. Iteration follows g.order and each function's
// call sites in source order, so witness chains are deterministic.
func (g *callGraph) fixpoint(facts *Facts) {
	for changed := true; changed; {
		changed = false
		for _, key := range g.order {
			n := g.nodes[key]
			if !n.retRank {
				for _, k := range n.retCalls {
					if callee := g.nodes[k]; callee != nil && callee.retRank {
						n.retRank, changed = true, true
						break
					}
				}
			}
			for _, cs := range n.calls {
				callee := g.nodes[cs.key]
				if !n.collective {
					if facts.directCollective(cs.fn) {
						n.collective, n.collVia = true, []string{cs.name}
						changed = true
					} else if callee != nil && callee.collective {
						n.collective = true
						n.collVia = append([]string{cs.name}, callee.collVia...)
						changed = true
					}
				}
				if !n.sends && callee != nil && callee.sends {
					n.sends = true
					n.sendsVia = append([]string{cs.name}, callee.sendsVia...)
					changed = true
				}
				if callee == nil {
					continue
				}
				for calleeIdx, callerIdx := range cs.paramArgs {
					if _, done := n.leak[callerIdx]; !done && callee.leak[calleeIdx] != "" {
						n.leak[callerIdx] = fmt.Sprintf("passes it to %s, which %s",
							cs.name, callee.leak[calleeIdx])
						changed = true
					}
					if _, done := n.async[callerIdx]; !done && callee.async[calleeIdx] != "" {
						if obj := paramObjAt(n, callerIdx); obj != nil {
							if _, isFn := obj.Type().Underlying().(*types.Signature); isFn {
								n.async[callerIdx] = fmt.Sprintf("passes it to %s, which %s",
									cs.name, callee.async[calleeIdx])
								changed = true
							}
						}
					}
				}
			}
		}
	}
}

func paramObjAt(n *funcNode, i int) types.Object {
	if i < 0 || i >= len(n.params) {
		return nil
	}
	return n.params[i]
}

// ---- Facts query surface ----

// directCollective reports whether fn itself is a collective op: a
// seeded pcu built-in or a function whose doc comment declares it
// collective.
func (f *Facts) directCollective(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	pkg := fn.Pkg().Path()
	if pathHasSuffix(pkg, pcuPkg) {
		for _, name := range builtinCollectives {
			if fn.Name() == name {
				return true
			}
		}
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = namedName(sig.Recv().Type())
	}
	return f.collective[funcKey{pkg, recv, fn.Name()}]
}

// CollectiveWitness reports whether calling fn reaches a collective.
// For a direct collective the chain is nil; for a transitively
// collective function it names the call path down to the collective op.
func (f *Facts) CollectiveWitness(fn *types.Func) ([]string, bool) {
	if f.directCollective(fn) {
		return nil, true
	}
	if n := f.graph.node(fn); n != nil && n.collective {
		return n.collVia, true
	}
	return nil, false
}

// IsCollective reports whether the called function reaches a collective
// directly or transitively.
func (f *Facts) IsCollective(fn *types.Func) bool {
	_, ok := f.CollectiveWitness(fn)
	return ok
}

// SendsWitness reports whether calling fn contributes data to
// communication (phase buffers, exchanges), with the call chain to the
// operation.
func (f *Facts) SendsWitness(fn *types.Func) ([]string, bool) {
	if n := f.graph.node(fn); n != nil && n.sends {
		return n.sendsVia, true
	}
	return nil, false
}

// LeakedCtxParam reports whether fn's i'th parameter is a *pcu.Ctx that
// escapes its goroutine inside fn (or its callees), and how.
func (f *Facts) LeakedCtxParam(fn *types.Func, i int) (string, bool) {
	if n := f.graph.node(fn); n != nil {
		if how, ok := n.leak[i]; ok {
			return how, true
		}
	}
	return "", false
}

// AsyncParam reports whether fn's i'th parameter is a function fn
// starts on another goroutine (directly or through callees), and how.
func (f *Facts) AsyncParam(fn *types.Func, i int) (string, bool) {
	if n := f.graph.node(fn); n != nil {
		if how, ok := n.async[i]; ok {
			return how, true
		}
	}
	return "", false
}

// RankReturn reports whether fn's return value derives from the
// calling rank.
func (f *Facts) RankReturn(fn *types.Func) bool {
	n := f.graph.node(fn)
	return n != nil && n.retRank
}
