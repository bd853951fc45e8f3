package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BufDiscipline enforces the packing/reading discipline of a pcu
// communication phase:
//
//   - A buffer obtained from c.To(peer) (or a partition phase's
//     to(from, to)) belongs to the phase it was created in. Writing to
//     it after a subsequent Exchange() in the same function packs data
//     into a buffer that has already been delivered and discarded.
//   - A *pcu.Reader obtained in a function (from a received Message's
//     .Data field or from pcu.NewReader) that is decoded must also be
//     checked for exhaustion via Empty, Remaining or Done on some path;
//     silently dropping trailing bytes hides protocol mismatches
//     between sender and receiver. Readers received as function
//     parameters are exempt: partial decoding may be the callee's
//     contract.
//   - A slice decoded without copying from a pooled message
//     (BytesVal/BytesNoCopy) must not be handed to the flight
//     recorder's Attach, which stores it by reference in the trace
//     ring: the ring outlives the phase, so once Done recycles the
//     message the timeline would render a later phase's bytes.
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
	"Bytes": true, "BytesVal": true, "BytesNoCopy": true,
	"Int32s": true, "Int64s": true, "Float64s": true,
	"AppendInt32s": true, "AppendInt64s": true, "AppendFloat64s": true,
}

var finalizeMethods = map[string]bool{
	"Empty": true, "Remaining": true, "Done": true,
}

// packMethods includes Reset and Grow: resetting or reserving a phase
// buffer after Exchange is the same bug as writing to it — the backing
// array belongs to the receiver (on-node) or the pool.
var packMethods = map[string]bool{
	"Byte": true, "Int32": true, "Int64": true, "Float64": true,
	"Bytes": true, "Int32s": true, "Int64s": true, "Float64s": true,
	"Reset": true, "Grow": true, "SetInt32": true,
}

// aliasMethods decode a slice that aliases the message's backing array;
// on a pooled reader such slices die when Done recycles the array.
var aliasMethods = map[string]bool{
	"BytesVal": true, "BytesNoCopy": true,
}

func runBufDiscipline(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkPhaseBody(p, n.Body)
				}
				return false
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
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					id, ok := n.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := p.Info.Defs[id]
					if obj == nil {
						obj = p.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if isPhaseBufferCall(p, call) {
						bufDefs[obj] = n.Pos()
					}
				}
				// Reader aliases: r := msg.Data / r := pcu.NewReader(x).
				for i, rhs := range n.Rhs {
					pooled, ok := readerOrigin(p, rhs)
					if !ok {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						obj := p.Info.Defs[id]
						if obj == nil {
							obj = p.Info.Uses[id]
						}
						if obj != nil {
							st := reader(obj) // begin tracking, undecoded
							st.pooled = st.pooled || pooled
						}
					}
				}
				// Uncopied decodes: v := r.BytesNoCopy() aliases the
				// pooled message buffer; remember which reader owns v so
				// uses past that reader's Done can be flagged.
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok || !aliasMethods[sel.Sel.Name] || !isReaderPtr(p.TypeOf(sel.X)) {
						continue
					}
					st := readerOf(sel.X)
					if st == nil || !st.pooled {
						continue
					}
					id, ok := n.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := p.Info.Defs[id]
					if obj == nil {
						obj = p.Info.Uses[id]
					}
					if obj != nil {
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
			// Trace retention: Attach stores its slice by reference in
			// the recorder ring, which outlives the communication phase.
			// Passing an uncopied pooled-message decode — a tracked alias
			// variable or a direct BytesVal/BytesNoCopy result — retains
			// bytes Done will recycle.
			if name == "Attach" && isRecorderPtr(p.TypeOf(sel.X)) {
				for _, arg := range n.Args {
					switch arg := ast.Unparen(arg).(type) {
					case *ast.Ident:
						if a, ok := aliases[p.Info.Uses[arg]]; ok && a.st.pooled {
							p.Reportf(arg.Pos(),
								"slice %q aliases a pooled message but is retained by the trace ring via Attach; copy it with Bytes first",
								arg.Name)
						}
					case *ast.CallExpr:
						if s, ok := ast.Unparen(arg.Fun).(*ast.SelectorExpr); ok &&
							aliasMethods[s.Sel.Name] && isReaderPtr(p.TypeOf(s.X)) {
							if st := readerOf(s.X); st != nil && st.pooled {
								p.Reportf(arg.Pos(),
									"%s decodes a pooled message by reference but is retained by the trace ring via Attach; copy it with Bytes first",
									s.Sel.Name)
							}
						}
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
	// later phase. Assignment LHS positions are skipped (overwriting the
	// alias variable is fine).
	if len(aliases) > 0 {
		lhs := map[*ast.Ident]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			if a, ok := n.(*ast.AssignStmt); ok {
				for _, l := range a.Lhs {
					if id, ok := ast.Unparen(l).(*ast.Ident); ok {
						lhs[id] = true
					}
				}
			}
			return true
		})
		ast.Inspect(body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || lhs[id] {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil {
				return true
			}
			a, ok := aliases[obj]
			if !ok {
				return true
			}
			if a.st.done != token.NoPos && id.Pos() > a.st.done && id.Pos() > a.pos {
				p.Reportf(id.Pos(),
					"slice %q aliases a pooled message recycled by Done at %s; copy it with Bytes or use it before Done",
					obj.Name(), p.Fset.Position(a.st.done))
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
		if fn := calleeFunc(p.Info, e); fn != nil && fn.Name() == "NewReader" &&
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

func isBufferPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isNamedType(ptr.Elem(), pcuPkg, "Buffer")
}

func isReaderPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isNamedType(ptr.Elem(), pcuPkg, "Reader")
}

func isRecorderPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isNamedType(ptr.Elem(), tracePkg, "Recorder")
}
