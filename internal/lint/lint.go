// Package lint implements pumi-vet, the project-specific static
// analysis behind `go run ./cmd/pumi-vet ./...`. It enforces the
// concurrency and distribution invariants the Go compiler cannot see:
// goroutine confinement of pcu.Ctx, rank-uniform entry into
// collectives, communication-buffer and message-reader discipline, and
// the opacity of mesh entity handles across parts.
//
// The package uses only the standard library (go/ast, go/parser,
// go/types); packages are loaded by walking the module tree and
// type-checked against a source importer, so the tool needs no
// dependencies beyond the Go toolchain itself.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path (or directory for fixtures)
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Analyzer is one check. Run inspects a package through its Pass and
// reports findings; analyzers may consult the cross-package Facts
// gathered before any analyzer runs.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is the per-(analyzer, package) context handed to Analyzer.Run.
type Pass struct {
	*Package
	Facts    *Facts
	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Analyzers returns pumi-vet's analyzers in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{CtxEscape, BufDiscipline, EntHandle, MapOrder, PhaseOrder, CollSeq, RankDiv}
}

// Facts is cross-package knowledge gathered in a pre-pass over every
// loaded package before analyzers run.
type Facts struct {
	// collective maps functions documented as collective — their doc
	// comment mentions "collective" — keyed by funcKey. The pcu
	// built-in collectives are seeded unconditionally.
	collective map[funcKey]bool
	// graph holds the interprocedural callgraph and per-function
	// summaries (see summary.go); analyzers query it through the
	// witness methods rather than touching nodes directly.
	graph *callGraph
}

// funcKey names a function or method: package path, receiver type name
// (empty for plain functions) and function name.
type funcKey struct {
	pkg, recv, name string
}

// pcuPkg is the import-path suffix identifying the PCU runtime package;
// matching by suffix keeps the analyzers independent of the module
// name.
const (
	pcuPkg   = "internal/pcu"
	meshPkg  = "internal/mesh"
	tracePkg = "internal/trace"
)

// builtinCollectives are the PCU entry points every rank must reach
// together. Their docs predate the "collective" convention, so they are
// seeded explicitly.
var builtinCollectives = []string{
	"Barrier", "Exchange",
	"Allreduce", "Reduce", "Bcast", "Allgather", "Exscan",
	"SumInt64", "MaxInt64", "MinInt64", "SumFloat64", "MaxFloat64",
	"ExscanInt64",
	"Agree",
}

func gatherFacts(pkgs []*Package) *Facts {
	f := &Facts{collective: map[funcKey]bool{}}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				if !strings.Contains(strings.ToLower(fd.Doc.Text()), "collective") {
					continue
				}
				recv := ""
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					recv = recvTypeName(fd.Recv.List[0].Type)
				}
				f.collective[funcKey{pkgPathOf(p), recv, fd.Name.Name}] = true
			}
		}
	}
	f.graph = buildCallGraph(pkgs, f)
	return f
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

// driverName is the analyzer name on findings about pumi-vet's own
// directives rather than about the code under analysis.
const driverName = "pumi-vet"

// ignoreKey addresses one source line for directive suppression.
type ignoreKey struct {
	file string
	line int
}

// gatherIgnores collects `//pumi-vet:ignore` directives. The directive
// takes a comma-separated analyzer list (or "all") and suppresses
// matching findings on its own line — the trailing-comment form — and
// on the line directly below, for a standalone comment above the
// offender:
//
//	if c.Rank() == 0 { //pumi-vet:ignore collseq
//
//	//pumi-vet:ignore collseq
//	if c.Rank() == 0 {
//
// It exists for code whose job is to violate an invariant on purpose —
// chiefly the deadlock-diagnosis tests, which skip collectives on some
// ranks to prove the watchdog catches it.
//
// A name that is neither "all" nor a registered analyzer suppresses
// nothing — a typo, or a directive that outlived its analyzer — so it
// comes back as a finding of the driver itself, at the directive.
func gatherIgnores(pkgs []*Package) (map[ignoreKey]map[string]bool, []Diagnostic) {
	valid := []string{"all"}
	for _, a := range Analyzers() {
		valid = append(valid, a.Name)
	}
	sort.Strings(valid)
	ign := map[ignoreKey]map[string]bool{}
	var unknown []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//pumi-vet:ignore")
					if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
						continue
					}
					// Allow a trailing explanation: "...ignore x // why".
					if i := strings.Index(rest, "//"); i >= 0 {
						rest = rest[:i]
					}
					names := map[string]bool{}
					for _, n := range strings.Split(rest, ",") {
						if n = strings.TrimSpace(n); n != "" {
							names[n] = true
						}
					}
					if len(names) == 0 {
						names["all"] = true
					}
					pos := p.Fset.Position(c.Pos())
					for n := range names {
						if !slices.Contains(valid, n) {
							unknown = append(unknown, Diagnostic{Pos: pos, Analyzer: driverName, Message: fmt.Sprintf(
								"unknown analyzer %q in //pumi-vet:ignore directive suppresses nothing (valid: %s)",
								n, strings.Join(valid, ", "))})
						}
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						k := ignoreKey{pos.Filename, line}
						if ign[k] == nil {
							ign[k] = map[string]bool{}
						}
						for n := range names {
							ign[k][n] = true
						}
					}
				}
			}
		}
	}
	return ign, unknown
}

// Run executes the given analyzers over the packages and returns all
// findings sorted by position, dropping those suppressed by
// //pumi-vet:ignore directives (and adding one per directive that names
// no analyzer).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := gatherFacts(pkgs)
	ignored, diags := gatherIgnores(pkgs)
	for _, p := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Package:  p,
				Facts:    facts,
				analyzer: a,
				report: func(d Diagnostic) {
					if names := ignored[ignoreKey{d.Pos.Filename, d.Pos.Line}]; names["all"] || names[d.Analyzer] {
						return
					}
					diags = append(diags, d)
				},
			}
			a.Run(pass)
		}
	}
	return dedupeDiags(diags)
}

// dedupeDiags sorts diagnostics into a total deterministic order —
// position, then analyzer, then message — and collapses positions
// reported by multiple analyzers (collseq and rankdiv both flag a
// rank-derived loop bound) down to the one with the fuller witness. The
// result is identical regardless of analyzer registration order.
func dedupeDiags(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	type posKey struct {
		file      string
		line, col int
	}
	// First pass: pick the winning analyzer per position — the longest
	// message, ties broken alphabetically, so the outcome never depends
	// on encounter order.
	winner := map[posKey]Diagnostic{}
	for _, d := range diags {
		k := posKey{d.Pos.Filename, d.Pos.Line, d.Pos.Column}
		w, ok := winner[k]
		if !ok || fullerWitness(d, w) {
			winner[k] = d
		}
	}
	// Second pass: keep every diagnostic from the winning analyzer at
	// each position (one analyzer may legitimately report twice), drop
	// the rest, and drop exact duplicates.
	out := diags[:0]
	var last Diagnostic
	for i, d := range diags {
		k := posKey{d.Pos.Filename, d.Pos.Line, d.Pos.Column}
		if d.Analyzer != winner[k].Analyzer {
			continue
		}
		if i > 0 && d == last {
			continue
		}
		last = d
		out = append(out, d)
	}
	return out
}

// fullerWitness reports whether a should beat b for the same position.
func fullerWitness(a, b Diagnostic) bool {
	if len(a.Message) != len(b.Message) {
		return len(a.Message) > len(b.Message)
	}
	if a.Message != b.Message {
		return a.Message < b.Message
	}
	return a.Analyzer < b.Analyzer
}

// Loader loads and type-checks packages from a module tree.
type Loader struct {
	Fset *token.FileSet

	// IncludeTests controls whether _test.go files are analyzed.
	IncludeTests bool

	imp     types.Importer
	modRoot string
	modPath string
}

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:         fset,
		IncludeTests: true,
		imp:          importer.ForCompiler(fset, "source", nil),
		modRoot:      root,
		modPath:      path,
	}, nil
}

func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod lacks a module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
	}
}

// Load resolves the given patterns (a directory, or a directory
// followed by "/..." for a recursive walk, relative to dir) and returns
// the loaded packages. Directories named testdata, vendor, or starting
// with "." or "_" are skipped during recursive walks but may be named
// explicitly.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = dir
			}
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(dir, pat)
		}
		if !recursive {
			addDir(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != pat && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			addDir(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var pkgs []*Package
	for _, d := range dirs {
		ps, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ps...)
	}
	return pkgs, nil
}

// loadDir parses and type-checks the package(s) in one directory: the
// primary package (with its in-package test files) and, separately, an
// external _test package if present.
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byName := map[string][]*ast.File{}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkgName := file.Name.Name
		byName[pkgName] = append(byName[pkgName], file)
	}
	importPath := l.importPath(dir)
	var names []string
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	var pkgs []*Package
	for _, n := range names {
		files := byName[n]
		path := importPath
		if strings.HasSuffix(n, "_test") {
			path += "_test"
		}
		pkgs = append(pkgs, l.check(path, files))
	}
	return pkgs, nil
}

func (l *Loader) importPath(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return dir
	}
	if rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// check type-checks one package leniently: type errors (e.g. in
// fixtures that intentionally misuse the API) are tolerated and the
// analyzers work with whatever type information resolved.
func (l *Loader) check(path string, files []*ast.File) *Package {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(error) {}, // lenient: analyze what resolved
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	return &Package{Path: path, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}
}

// ---- shared type helpers used by the analyzers ----

// pathHasSuffix reports whether import path p ends in the path suffix
// want (component-aligned).
func pathHasSuffix(p, want string) bool {
	return p == want || strings.HasSuffix(p, "/"+want)
}

// namedName returns the name of the named type underlying t (pointers
// dereferenced), or "".
func namedName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isNamedType reports whether t (pointers dereferenced) is the named
// type pkgSuffix.name.
func isNamedType(t types.Type, pkgSuffix, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return pathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// isCtxPtr reports whether t is *pcu.Ctx.
func isCtxPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isNamedType(ptr.Elem(), pcuPkg, "Ctx")
}

// isRankCall reports whether call is Rank() on a *pcu.Ctx.
func isRankCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Rank" {
		return false
	}
	return isCtxPtr(p.TypeOf(sel.X))
}

// calleeFunc resolves a call expression to the called *types.Func
// (function or method), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// methodRecvType returns the receiver expression's type for a method
// call, or nil for plain function calls.
func methodRecvType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && (s.Kind() == types.MethodVal || s.Kind() == types.MethodExpr) {
		return info.TypeOf(sel.X)
	}
	return nil
}
