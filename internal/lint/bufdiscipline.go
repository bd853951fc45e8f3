package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BufDiscipline enforces the packing/reading discipline of a pcu
// communication phase:
//
//   - A buffer obtained from c.To(peer) (or the window a partition
//     phase's to(from, to) hands out) belongs to its phase. Writing to
//     it after a subsequent Exchange() in the same function packs data
//     into a buffer that has already been delivered and discarded.
//   - A *pcu.Reader obtained in a function (from a received Message's
//     .Data field or from pcu.NewReader) that is decoded must also be
//     checked for exhaustion via Empty, Remaining, Done or Recycle on
//     some path; silently dropping trailing bytes hides protocol
//     mismatches between sender and receiver. Readers received as function
//     parameters are exempt: partial decoding may be the callee's
//     contract.
//
// Both checks are per-function and lexical (position-based), which
// matches the straight-line phase structure of PUMI communication code.
var BufDiscipline = &Analyzer{
	Name: "bufdiscipline",
	Doc:  "detect stale phase buffers and unchecked message readers",
	Run:  runBufDiscipline,
}

var decodeMethods = map[string]bool{
	"Byte": true, "Int32": true, "Int64": true, "Float64": true,
	"Bytes": true, "BytesNoCopy": true,
	"Int32s": true, "Int64s": true, "Float64s": true,
	"AppendInt32s": true, "AppendFloat64s": true,
}

var finalizeMethods = map[string]bool{
	"Empty": true, "Remaining": true, "Done": true, "Recycle": true,
}

// packMethods includes Reset, Grow and Window: resetting, reserving or
// windowing a phase buffer after Exchange is the same bug as writing to
// it — the backing array belongs to the receiver (on-node) or the pool.
var packMethods = map[string]bool{
	"Byte": true, "Int32": true, "Int64": true, "Float64": true,
	"Bytes": true, "Int32s": true, "Int64s": true, "Float64s": true,
	"Reset": true, "Grow": true, "SetInt32": true, "Window": true,
}

// aliasMethods decode a slice that aliases the message's backing array;
// on a pooled reader such slices die when Done recycles the array.
var aliasMethods = map[string]bool{"BytesNoCopy": true}

func runBufDiscipline(p *Pass) {
	for _, file := range p.Files {
		// A function literal is a function of its own — a rank body
		// inside a declaration among them — checked apart from its
		// enclosing declaration's body.
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkPhaseBody(p, n.Body)
				}
			case *ast.FuncLit:
				checkPhaseBody(p, n.Body)
				return false
			}
			return true
		})
	}
}

// readerState tracks one reader object (variable or selector path)
// within a function body.
type readerState struct {
	firstDecode token.Pos
	decoded     bool
	finalized   bool
	// pooled marks readers backed by a received Message (.Data): their
	// Done recycles the backing array, so uncopied slices decoded from
	// them must not be used past Done. NewReader readers are not pooled.
	pooled bool
	done   token.Pos // first Done call, NoPos if never
}

func checkPhaseBody(p *Pass, body *ast.BlockStmt) {
	var exchanges []token.Pos               // positions of Exchange()/exchange() calls
	bufDefs := map[types.Object]token.Pos{} // buffer var -> creation pos
	readers := map[any]*readerState{}       // reader key -> state
	type bufWrite struct {
		obj types.Object
		pos token.Pos
	}
	var writes []bufWrite
	type aliasDef struct {
		st  *readerState
		pos token.Pos
	}
	aliases := map[types.Object]aliasDef{} // uncopied decode var -> its reader

	reader := func(key any) *readerState {
		st := readers[key]
		if st == nil {
			st = &readerState{}
			readers[key] = st
		}
		return st
	}

	// readerOf resolves a method receiver to its tracked state: a
	// variable aliasing a reader origin, or a .Data selector path.
	// Untracked receivers (reader-typed parameters) return nil — partial
	// decoding may be the callee's contract.
	readerOf := func(x ast.Expr) *readerState {
		switch recv := ast.Unparen(x).(type) {
		case *ast.Ident:
			obj := p.Info.Uses[recv]
			if obj == nil {
				return nil
			}
			return readers[obj]
		case *ast.SelectorExpr:
			if recv.Sel.Name != "Data" {
				return nil
			}
			st := reader(selectorPath(recv))
			st.pooled = true
			return st
		}
		return nil
	}

	// Single pass in source order, not descending into nested literals
	// (they get their own checkPhaseBody via runBufDiscipline).
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				var obj types.Object
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					obj = identObj(p.Info, id)
				}
				if obj == nil {
					continue
				}
				// Reader aliases: r := msg.Data / r := pcu.NewReader(x).
				if pooled, ok := readerOrigin(p, rhs); ok {
					st := reader(obj) // begin tracking, undecoded
					st.pooled = st.pooled || pooled
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if isPhaseBufferCall(p, call) {
					bufDefs[obj] = n.Pos()
				}
				// Uncopied decodes: v := r.BytesNoCopy() aliases the
				// pooled message buffer; remember which reader owns v so
				// uses past that reader's Done can be flagged.
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && aliasMethods[sel.Sel.Name] && isReaderPtr(p.TypeOf(sel.X)) {
					if st := readerOf(sel.X); st != nil && st.pooled {
						aliases[obj] = aliasDef{st: st, pos: n.Pos()}
					}
				}
			}
		case *ast.CallExpr:
			if isExchangeCall(p, n) {
				exchanges = append(exchanges, n.Pos())
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			// Buffer writes through a tracked variable.
			if packMethods[name] && isBufferPtr(p.TypeOf(sel.X)) {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					var obj types.Object = p.Info.Uses[id]
					if _, tracked := bufDefs[obj]; tracked {
						writes = append(writes, bufWrite{obj, n.Pos()})
					}
				}
			}
			// Reader decodes / finalizes, keyed by variable object or
			// by the selector path of the receiver.
			if (decodeMethods[name] || finalizeMethods[name]) && isReaderPtr(p.TypeOf(sel.X)) {
				st := readerOf(sel.X)
				if st == nil {
					return true
				}
				if finalizeMethods[name] {
					st.finalized = true
					if name == "Done" && st.done == token.NoPos {
						st.done = n.Pos()
					}
				} else if !st.decoded {
					st.decoded = true
					st.firstDecode = n.Pos()
				}
			}
		}
		return true
	})

	for _, w := range writes {
		def := bufDefs[w.obj]
		for _, e := range exchanges {
			if def < e && e < w.pos {
				p.Reportf(w.pos,
					"phase buffer %q (created at %s) written after Exchange at %s; To buffers are delivered and discarded by Exchange",
					w.obj.Name(), p.Fset.Position(def), p.Fset.Position(e))
				break
			}
		}
	}
	for _, st := range readers {
		if st.decoded && !st.finalized {
			p.Reportf(st.firstDecode,
				"message reader decoded but never checked for exhaustion; call Empty/Remaining in a loop or Done after the last decode")
		}
	}

	// Escape-past-Done: a use of an uncopied slice after the owning
	// reader's Done reads bytes the pool may already have handed to a
	// later phase. Assignment targets are skipped (overwriting the alias
	// variable is fine): an assignment is visited before its operands.
	if len(aliases) > 0 {
		lhs := map[*ast.Ident]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if id, ok := ast.Unparen(l).(*ast.Ident); ok {
						lhs[id] = true
					}
				}
			case *ast.Ident:
				obj := p.Info.Uses[n]
				if a, ok := aliases[obj]; ok && obj != nil && !lhs[n] && a.st.done != token.NoPos && n.Pos() > a.st.done && n.Pos() > a.pos {
					p.Reportf(n.Pos(),
						"slice %q aliases a pooled message recycled by Done at %s; copy it with Bytes or use it before Done",
						obj.Name(), p.Fset.Position(a.st.done))
				}
			}
			return true
		})
	}
}

// isPhaseBufferCall reports whether the call creates a phase packing
// buffer: a To/to method returning *pcu.Buffer.
func isPhaseBufferCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "To" && sel.Sel.Name != "to" {
		return false
	}
	return isBufferPtr(p.TypeOf(call))
}

func isExchangeCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if name != "Exchange" && name != "exchange" {
		return false
	}
	recv := p.TypeOf(sel.X)
	if isCtxPtr(recv) {
		return true
	}
	// partition's part-addressed phase wrapper.
	return namedName(recv) == "phase"
}

// readerOrigin reports whether the expression produces a fresh reader
// this function is responsible for — pcu.NewReader(...) or a .Data
// selector of reader type (a received message) — and whether that
// origin is pooled (recycled by Done).
func readerOrigin(p *Pass, e ast.Expr) (pooled, ok bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if fn := funcOf(p.Info, e.Fun); fn != nil && fn.Name() == "NewReader" &&
			fn.Pkg() != nil && pathHasSuffix(fn.Pkg().Path(), pcuPkg) {
			return false, true
		}
	case *ast.SelectorExpr:
		if e.Sel.Name == "Data" && isReaderPtr(p.TypeOf(e)) {
			return true, true
		}
	}
	return false, false
}

// selectorPath renders a selector chain (msg.Data, m.Data) to a
// comparable string key.
func selectorPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return selectorPath(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return selectorPath(e.X) + "[]"
	case *ast.CallExpr:
		return selectorPath(e.Fun) + "()"
	}
	return "?"
}

func isBufferPtr(t types.Type) bool { return isPtrTo(t, pcuPkg, "Buffer") }
func isReaderPtr(t types.Type) bool { return isPtrTo(t, pcuPkg, "Reader") }
