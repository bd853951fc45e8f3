package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// PhaseOrder checks the phased-exchange protocol lexically, per
// function: sends packed into a phase object obtained from beginPhase
// (`ph.to(...)`) must be followed by a `ph.exchange()`; one phase serves
// any number of such rounds. The violation is silent at runtime — a
// buffer packed after the last exchange is never delivered and its
// receiver starves — so it is worth a static gate.
//
// The analysis is a state machine over the lexical event order
// (create/pack/exchange) of each phase variable, including events
// inside nested function literals. A phase value that escapes the
// function's own protocol — passed to a helper, returned, stored — is
// exempt, since the exchange may legitimately happen elsewhere.
var PhaseOrder = &Analyzer{
	Name: "phaseorder",
	Doc:  "check begin/to/exchange ordering of phased exchanges",
	Run:  runPhaseOrder,
}

const (
	evCreate = iota
	evPack
	evClose
	evEscape
)

type phaseEvent struct {
	pos  token.Pos
	kind int
	obj  types.Object
}

func runPhaseOrder(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPhaseOrder(p, fd.Body)
		}
	}
}

func checkPhaseOrder(p *Pass, body *ast.BlockStmt) {
	// First pass: protocol events. Identifiers consumed by a protocol
	// operation are excluded from the escape pass below.
	consumed := map[*ast.Ident]bool{}
	var events []phaseEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBeginPhaseCall(p, call) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if obj := identObj(p.Info, id); obj != nil {
					consumed[id] = true
					events = append(events, phaseEvent{id.Pos(), evCreate, obj})
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil {
				return true
			}
			switch sel.Sel.Name {
			case "to", "To":
				consumed[id] = true
				events = append(events, phaseEvent{n.Pos(), evPack, obj})
			case "exchange", "Exchange":
				consumed[id] = true
				events = append(events, phaseEvent{n.Pos(), evClose, obj})
			}
		}
		return true
	})
	// Second pass: any other use of a phase variable is an escape.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || consumed[id] {
			return true
		}
		if obj := p.Info.Uses[id]; obj != nil {
			events = append(events, phaseEvent{id.Pos(), evEscape, obj})
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	type phaseState struct {
		openPos token.Pos
		packed  bool // sends packed since the last exchange
		escaped bool
	}
	// Only variables that beginPhase assigned at some point get a state
	// machine; to/To and exchange/Exchange on anything else (a raw
	// *pcu.Ctx, unrelated types) are out of scope here.
	states := map[types.Object]*phaseState{}
	missedExchange := func(st *phaseState, at token.Pos) {
		p.Reportf(at,
			"phased exchange begun at %s packed sends but never ran exchange; every receiver stalls",
			p.Fset.Position(st.openPos))
	}
	for _, ev := range events {
		st := states[ev.obj]
		switch ev.kind {
		case evCreate:
			if st != nil && st.packed && !st.escaped {
				missedExchange(st, ev.pos)
			}
			states[ev.obj] = &phaseState{openPos: ev.pos}
		case evPack:
			if st != nil {
				st.packed = true
			}
		case evClose:
			if st != nil {
				st.packed = false
			}
		case evEscape:
			if st != nil {
				st.escaped = true
			}
		}
	}
	var leftovers []*phaseState
	for _, st := range states {
		if st.packed && !st.escaped {
			leftovers = append(leftovers, st)
		}
	}
	sort.Slice(leftovers, func(i, j int) bool { return leftovers[i].openPos < leftovers[j].openPos })
	for _, st := range leftovers {
		missedExchange(st, st.openPos)
	}
}

// isBeginPhaseCall matches the phase constructors: a call to a function
// or method named beginPhase/BeginPhase.
func isBeginPhaseCall(p *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return false
	}
	return fn.Name() == "beginPhase" || fn.Name() == "BeginPhase"
}

// identObj resolves an identifier in either Defs (`:=`) or Uses (`=`).
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}
