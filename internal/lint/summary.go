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
//   - leaking ctx params and async func params: the escape sites of the
//     function's body (escapesAt, the scan ctxescape reports) whose value
//     is one of its parameters, or a parameter forwarded to a callee that
//     leaks it; ctxescape flags passing a Ctx, or a Ctx-capturing
//     literal, into such a parameter.
//   - sends: the function communicates (commOp: opens a phase buffer,
//     packs one, runs an exchange) or calls a callee that does; maporder
//     flags map-range bodies that reach one.
//   - rank return: a return statement's result is rank-derived under
//     collseq's own dataflow (rankTaint, rankDerived).
//
// Summaries include calls made inside nested function literals
// (may-execute over-approximation): a helper that only *constructs* a
// collective closure is treated as collective itself, which errs on
// the side of reporting for the invariants at stake here.

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// collectiveDoc matches the tree's two ways of documenting a function
// collective, word-bounded: "(collective" and "is collective".
var collectiveDoc = regexp.MustCompile(`(?i)(\(|\bis\s+)collective([^\w-]|$)`)

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
	collVia    []string       // call chain from here to the collective op
	sends      string         // how the function reaches communication, or ""
	leak       map[int]string // ctx param index -> how it escapes
	async      map[int]string // func param index -> how it is started
	retRank    bool           // the return value derives from the calling rank

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
// gatherFacts derives it from the declaration, so call sites and
// declarations meet even though the source importer re-checks packages
// independently. (A declaration's own object can be missing: the loader
// ignores build tags, so a function declared once per tag is a
// redeclaration the type checker records no object for.)
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

func pkgPathOf(p *Package) string {
	if p.Pkg != nil {
		return p.Pkg.Path()
	}
	return p.Path
}

func recvTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

// gatherFacts walks every function declaration once: a doc comment
// documenting it collective (collectiveDoc) marks it so, and a body
// becomes a callgraph node with its direct summary. The summaries are
// then closed under the callgraph, rank returns after the collective
// bits they depend on, and effect terms last.
func gatherFacts(pkgs []*Package) *Facts {
	g := &callGraph{nodes: map[funcKey]*funcNode{}}
	f := &Facts{collective: map[funcKey]bool{}, graph: g}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				recv := ""
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					recv = recvTypeName(fd.Recv.List[0].Type)
				}
				key := funcKey{pkgPathOf(p), recv, fd.Name.Name}
				if fd.Doc != nil && collectiveDoc.MatchString(fd.Doc.Text()) {
					f.collective[key] = true
				}
				if fd.Body != nil {
					g.nodes[key] = newFuncNode(p, fd, key)
					g.order = append(g.order, key)
				}
			}
		}
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].less(g.order[j]) })
	g.fixpoint(f)
	g.rankReturns(f)
	g.inferEffects(f)
	return f
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
// declaration: its call sites, its first communication, and the escape
// sites whose value is one of its parameters.
func newFuncNode(p *Package, fd *ast.FuncDecl, key funcKey) *funcNode {
	n := &funcNode{key: key, pkg: p, decl: fd, leak: map[int]string{}, async: map[int]string{}}
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
	paramIndex := func(e ast.Expr) int {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && p.Info.Uses[id] != nil {
			return slices.Index(n.params, p.Info.Uses[id])
		}
		return -1
	}
	pass := &Pass{Package: p}
	ast.Inspect(fd.Body, func(c ast.Node) bool {
		escapesAt(p.Info, c, func(x escape) {
			i := paramIndex(x.val)
			if i < 0 {
				return
			}
			t := p.Info.TypeOf(x.val)
			switch {
			case isCtxPtr(t):
				n.leak[i] = [...]string{
					escGoArg:   "passes it to a goroutine",
					escCapture: "captures it in a goroutine literal",
					escSend:    "sends it on a channel",
					escStore:   "stores it in package-level state",
				}[x.shape]
			case x.shape == escGoFunc:
				n.async[i] = "starts it on a goroutine"
			case x.shape == escCapture && isFunc(t):
				n.async[i] = "runs it from a goroutine literal"
			}
		})
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if n.sends == "" {
			n.sends = commOp(pass, call)
		}
		cs := &callSite{fn: funcOf(p.Info, call.Fun)}
		if cs.fn == nil {
			return true
		}
		cs.key = keyOfFunc(cs.fn)
		cs.name = cs.key.String()
		for ai, arg := range call.Args {
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
		return true
	})
	return n
}

// isFunc reports whether t is a function type.
func isFunc(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// commOp is the one communication predicate: it names the communication
// a call makes by itself — opening a phase send buffer, packing a
// communication buffer, running an exchange — or returns "".
func commOp(p *Pass, call *ast.CallExpr) string {
	switch {
	case isPhaseBufferCall(p, call):
		return "opens a phase send buffer"
	case isExchangeCall(p, call):
		return "runs an exchange"
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && packMethods[sel.Sel.Name] && isBufferPtr(p.TypeOf(sel.X)) {
		return "packs a communication buffer"
	}
	return ""
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
				if callee == nil {
					continue
				}
				if n.sends == "" && callee.sends != "" {
					n.sends, changed = callee.sends, true
				}
				for calleeIdx, callerIdx := range cs.paramArgs {
					if n.leak[callerIdx] == "" && callee.leak[calleeIdx] != "" {
						n.leak[callerIdx] = fmt.Sprintf("passes it to %s, which %s",
							cs.name, callee.leak[calleeIdx])
						changed = true
					}
					if n.async[callerIdx] == "" && callee.async[calleeIdx] != "" && n.params[callerIdx] != nil && isFunc(n.params[callerIdx].Type()) {
						n.async[callerIdx] = fmt.Sprintf("passes it to %s, which %s",
							cs.name, callee.async[calleeIdx])
						changed = true
					}
				}
			}
		}
	}
}

// rankReturns closes the rank-return summary under the callgraph with
// collseq's dataflow: a function returns a rank-derived value when a
// result of one of its own return statements (function literals
// pruned: a returned closure does not evaluate at return time) is
// rankDerived under the body's rankTaint. rankDerived reads the
// results of ops every rank enters as reconciled, so this runs after
// fixpoint has found those ops.
func (g *callGraph) rankReturns(facts *Facts) {
	for changed := true; changed; {
		changed = false
		for _, key := range g.order {
			n := g.nodes[key]
			// Only a body calling Rank() or a rank-returning function
			// can return the rank.
			if n.retRank || !slices.ContainsFunc(n.calls, func(cs *callSite) bool {
				return cs.name == "Ctx.Rank" || g.nodes[cs.key] != nil && g.nodes[cs.key].retRank
			}) {
				continue
			}
			p := &Pass{Package: n.pkg, Facts: facts}
			taint := rankTaint(p, n.decl.Body)
			ast.Inspect(n.decl.Body, func(c ast.Node) bool {
				switch c := c.(type) {
				case *ast.FuncLit:
					return false
				case *ast.ReturnStmt:
					if slices.ContainsFunc(c.Results, func(e ast.Expr) bool { return rankDerived(p, e, taint) }) {
						n.retRank = true
					}
				}
				return !n.retRank
			})
			changed = changed || n.retRank
		}
	}
}

// ---- Facts query surface ----

// directCollective reports whether fn itself is a collective op: a
// seeded pcu built-in or a function whose doc comment declares it
// collective.
func (f *Facts) directCollective(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if pathHasSuffix(fn.Pkg().Path(), pcuPkg) && slices.Contains(builtinCollectives, fn.Name()) {
		return true
	}
	return f.collective[keyOfFunc(fn)]
}

// CollectiveWitness reports whether calling fn reaches a collective.
// For a direct collective the chain is nil; for a transitively
// collective function it names the call path down to the collective op.
func (f *Facts) CollectiveWitness(fn *types.Func) ([]string, bool) {
	if f.directCollective(fn) {
		return nil, true
	}
	n := f.summary(fn)
	return n.collVia, n.collective
}

// IsCollective reports whether the called function reaches a collective
// directly or transitively.
func (f *Facts) IsCollective(fn *types.Func) bool {
	_, ok := f.CollectiveWitness(fn)
	return ok
}

// summary returns fn's summary, or noSummary for a function outside the
// loaded set: it reaches no communication, leaks no parameter and
// returns no rank.
func (f *Facts) summary(fn *types.Func) *funcNode {
	if n := f.graph.node(fn); n != nil {
		return n
	}
	return noSummary
}

var noSummary = &funcNode{}
