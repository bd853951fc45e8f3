package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// MapOrder detects Go map iteration order flowing into communication.
// Map range order is deliberately randomized by the runtime, so a range
// over a map whose body packs a send buffer, opens a phase buffer, runs
// an exchange, or enters a collective (directly or through helpers —
// the interprocedural summaries decide) produces a different byte
// stream or collective schedule on every run. That breaks both the
// determinism contract (identically seeded runs must produce identical
// communication) and, when the iteration chooses collective order,
// deadlocks ranks against each other.
//
// The fix is always the same and is the idiom used throughout this
// repo: copy the keys to a slice, sort, and range over the slice. A
// range body that merely collects into local state before a sorted send
// elsewhere is not flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "detect map iteration order flowing into sends, reductions or migration plans",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if witness := commWitness(p, rs.Body); witness != "" {
				p.Reportf(rs.For,
					"map iteration order reaches communication (%s); sort the keys into a slice and range over that",
					witness)
			}
			return true
		})
	}
}

// commWitness scans a range body — descending into function literals,
// which still execute per-iteration when called — for the first
// communication-reaching operation in source order. It returns a
// human-readable witness, or "" if the body stays local.
func commWitness(p *Pass, body ast.Node) string {
	witness := ""
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if witness != "" || !ok {
			return witness == ""
		}
		witness = commOp(p, call)
		fn := funcOf(p.Info, call.Fun)
		chain, coll := p.Facts.CollectiveWitness(fn)
		switch sends := p.Facts.summary(fn).sends; {
		case witness != "":
		case coll && chain == nil:
			witness = fmt.Sprintf("calls collective %s", fn.Name())
		case coll:
			witness = fmt.Sprintf("reaches collective via %s", witnessChain(fn, chain))
		case sends != "":
			witness = fmt.Sprintf("calls %s, which %s", fn.Name(), sends)
		}
		return witness == ""
	})
	return witness
}
