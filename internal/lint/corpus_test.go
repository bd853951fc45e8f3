package lint

// The seeded-bug corpus: one small rank body per bug, each run through
// every checking layer the project has, so that the record of which
// layer catches what is measured rather than argued. DESIGN.md §5
// quotes the table TestSeededBugCorpus pins.
//
// A static layer catches a bug when its analyzer reports inside the
// bug's function. The file is analyzed as written: the
// //pumi-vet:ignore directives that keep `make vet-self` clean of the
// seeded bugs are stripped first. A dynamic layer catches a bug when a
// run of the body on corpusRanks ranks fails with that layer's error:
//
//	rendezvous  a *pcu.MismatchError (a plain run)
//	watchdog    a *pcu.StallError (a plain run)
//	verify      partition.Verify fails at the end of a mesh body (a plain run)
//	san         a *san.OwnershipError under the sanitizer, or an
//	            op-sequence hash (Stats.SanHash) that differs between two
//	            sanitized runs of the same body
//
// A plain run that fails some other way — a type assertion in a
// mis-paired collective, a decode underflow — is logged, not counted.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/san"
	"github.com/fastmath/pumi-go/internal/vec"
)

const (
	corpusRanks = 2
	corpusStall = 500 * time.Millisecond
	// corpusRepeats bounds the sanitized runs compared for a differing
	// op-sequence hash: the order of a 64-key map repeats between two
	// runs with a small probability, four times in a row practically
	// never.
	corpusRepeats = 4
)

// The dynamic layers, after the analyzers in the corpus table.
const (
	layerRendezvous = "rendezvous"
	layerSan        = "san"
	layerWatchdog   = "watchdog"
	layerVerify     = "verify"
)

// errVerify marks a failed partition.Verify at the end of a mesh body.
var errVerify = errors.New("corpus: Verify failed")

type seededBug struct {
	name string               // the row of the corpus table
	body func(*pcu.Ctx) error // the function holding the bug
	want []string             // the layers that catch it
}

// fn names the function holding the bug.
func (b seededBug) fn() string {
	name := runtime.FuncForPC(reflect.ValueOf(b.body).Pointer()).Name()
	return name[strings.LastIndex(name, ".")+1:]
}

var corpus = []seededBug{
	{"one rank skips a collective", bugSkipCollective, []string{"collseq", layerWatchdog}},
	{"an early return runs past a trailing barrier", bugEarlyReturn, []string{"collseq", layerWatchdog}},
	{"a loop bound depends on the rank", bugRankLoop, []string{"collseq", layerWatchdog}},
	{"an exchange and a reduction run in a different order on one rank", bugSwappedCollectives, []string{"collseq", layerRendezvous}},
	{"map order reaches a send", bugMapOrderSend, []string{"maporder", layerSan}},
	{"map order reaches a per-key reduction", bugMapOrderReduce, []string{"maporder"}},
	{"a non-owner writes a shared entity", bugNonOwnerWrite, []string{layerSan}},
	{"a Reader slice is used after Done", bugSliceAfterDone, []string{"bufdiscipline"}},
	{"a handle is used after its ownership migrated away", bugStaleHandle, []string{layerSan}},
	{"a handle is written after its entity migrated away entirely", bugDeadHandle, []string{layerSan}},
	{"a Ctx escapes its rank goroutine", bugCtxEscape, []string{"ctxescape"}},
	{"a phase is packed but never exchanged", bugPackedNeverExchanged, []string{"phaseorder"}},
	{"a guard on a rank-derived helper value skips a collective", bugRankHelperGuard, []string{"collseq", layerWatchdog}},
	{"ranks pair SumInt64 with MaxInt64", bugMismatchedReductions, []string{"collseq", layerRendezvous}},
	{"a collective is guarded by a rank the run does not have", bugUnreachedGuard, []string{"collseq"}},
	{"a part-local count skips a collective", bugLocalCountSkip, []string{layerWatchdog}},
	{"a part-local count swaps Exchange for Barrier", bugLocalCountSwap, []string{layerRendezvous}},
	{"a remote-copy handle is compared with ==", bugRemoteHandleCompare, []string{"enthandle"}},
	{"an owner drops a remote-copy link one-sidedly", bugOneSidedUnlink, []string{layerVerify}},
	{"a restitch unlinks two copies of a shared entity on both sides", bugRestitchUnlink, []string{layerVerify}},
	{"a ghost is written", bugGhostWrite, []string{layerSan}},
	{"a mesh is written from another goroutine", bugForeignWrite, []string{layerSan}},
	{"a message is decoded only in part", bugPartialDecode, []string{"bufdiscipline"}},
	{"a collective behind an interface method is rank-guarded", bugInterfaceCollective, []string{layerWatchdog}},
}

// ---- the seeded bugs ----

func bugSkipCollective(c *pcu.Ctx) error {
	if c.Rank() == 0 { //pumi-vet:ignore collseq
		c.Barrier()
	}
	return nil
}

func bugEarlyReturn(c *pcu.Ctx) error {
	if c.Rank() == 1 { //pumi-vet:ignore collseq
		return nil
	}
	c.Barrier()
	return nil
}

func bugRankLoop(c *pcu.Ctx) error {
	n := rounds(c)
	for i := 0; i < n; i++ { //pumi-vet:ignore collseq
		c.Barrier()
	}
	return nil
}

func rounds(c *pcu.Ctx) int { return c.Rank() + 1 }

func bugSwappedCollectives(c *pcu.Ctx) error {
	if c.Rank() == 1 { //pumi-vet:ignore collseq
		c.Exchange()
		pcu.SumInt64(c, 1)
	} else {
		pcu.SumInt64(c, 1)
		c.Exchange()
	}
	return nil
}

func bugMapOrderSend(c *pcu.Ctx) error {
	peer := (c.Rank() + 1) % c.Size()
	for k, w := range corpusWeights() { //pumi-vet:ignore maporder
		c.To(peer).Int64(k)
		c.To(peer).Int64(w)
	}
	for _, m := range c.Exchange() {
		for !m.Data.Empty() {
			m.Data.Int64()
		}
		m.Data.Done()
	}
	return nil
}

func bugMapOrderReduce(c *pcu.Ctx) error {
	total := map[int64]int64{}
	for k, w := range corpusWeights() { //pumi-vet:ignore maporder
		total[k] = pcu.SumInt64(c, w)
	}
	return nil
}

func bugNonOwnerWrite(c *pcu.Ctx) error {
	dm := corpusMesh(c)
	m := dm.Parts[0].M
	for v := range m.PartBoundary(0) {
		if !m.IsOwned(v) {
			m.SetCoord(v, m.Coord(v).Scale(1.01))
			break
		}
	}
	return verified(dm)
}

func bugSliceAfterDone(c *pcu.Ctx) error {
	peer := (c.Rank() + 1) % c.Size()
	c.To(peer).Bytes([]byte("first"))
	var kept []byte
	for _, m := range c.Exchange() {
		kept = m.Data.BytesNoCopy()
		m.Data.Done()
	}
	c.To(peer).Bytes([]byte("second"))
	for _, m := range c.Exchange() {
		m.Data.Bytes()
		m.Data.Done()
	}
	_ = string(kept) //pumi-vet:ignore bufdiscipline
	return nil
}

func bugStaleHandle(c *pcu.Ctx) error {
	dm := corpusMesh(c)
	m := dm.Parts[0].M
	plan := partition.Plan{}
	kept, el, ok := innerVertex(m)
	if ok && m.Part() == 1 {
		plan[el] = 0
	}
	if err := partition.TryMigrate(dm, []partition.Plan{plan}); err != nil {
		return err
	}
	if ok && m.Part() == 1 {
		m.SetCoord(kept, m.Coord(kept).Scale(1.01))
	}
	return verified(dm)
}

func bugDeadHandle(c *pcu.Ctx) error {
	dm := corpusMesh(c)
	m := dm.Parts[0].M
	plan := partition.Plan{}
	var kept mesh.Ent
	if m.Part() == 1 {
		for v := range m.Iter(0) {
			kept = v
			break
		}
		for el := range m.Iter(3) {
			plan[el] = 0
		}
	}
	if err := partition.TryMigrate(dm, []partition.Plan{plan}); err != nil {
		return err
	}
	if m.Part() == 1 {
		m.SetCoord(kept, m.Coord(kept).Scale(1.01))
	}
	return verified(dm)
}

func bugCtxEscape(c *pcu.Ctx) error {
	onOtherGoroutine(func() {
		c.Barrier() //pumi-vet:ignore ctxescape
	})
	return nil
}

func bugPackedNeverExchanged(c *pcu.Ctx) error {
	ph := beginPhase(c) //pumi-vet:ignore phaseorder
	ph.to((c.Rank() + 1) % c.Size()).Int64(1)
	return nil
}

func bugRankHelperGuard(c *pcu.Ctx) error {
	if share(c) > 0 { //pumi-vet:ignore collseq
		c.Barrier()
	}
	return nil
}

func share(c *pcu.Ctx) int { return c.Rank() * 2 }

func bugMismatchedReductions(c *pcu.Ctx) error {
	if c.Rank() == 0 { //pumi-vet:ignore collseq
		pcu.SumInt64(c, 1)
	} else {
		pcu.MaxInt64(c, 1)
	}
	return nil
}

func bugUnreachedGuard(c *pcu.Ctx) error {
	if c.Rank() >= corpusRanks { //pumi-vet:ignore collseq
		c.Barrier()
	}
	return nil
}

func bugLocalCountSkip(c *pcu.Ctx) error {
	dm := corpusMesh(c)
	if dm.Parts[0].M.Count(3) > 6 {
		c.Barrier()
	}
	return nil
}

func bugLocalCountSwap(c *pcu.Ctx) error {
	dm := corpusMesh(c)
	if dm.Parts[0].M.Count(3) > 6 {
		c.Exchange()
	} else {
		c.Barrier()
	}
	return nil
}

func bugRemoteHandleCompare(c *pcu.Ctx) error {
	dm := corpusMesh(c)
	m := dm.Parts[0].M
	same := 0
	for v := range m.PartBoundary(0) {
		m.EachRemote(v, func(q int32, h mesh.Ent) bool {
			rc := mesh.RemoteCopyRef{Part: q, Ent: h}
			if rc.Ent == v { //pumi-vet:ignore enthandle
				same++
			}
			return true
		})
	}
	pcu.SumInt64(c, int64(same))
	return verified(dm)
}

func bugOneSidedUnlink(c *pcu.Ctx) error {
	dm := corpusMesh(c)
	m := dm.Parts[0].M
	for v := range m.PartBoundary(0) {
		if m.IsOwned(v) {
			m.RemoveRemote(v, m.AppendRemoteParts(v, nil)[0])
			break
		}
	}
	return verified(dm)
}

// bugRestitchUnlink drops the links between parts 0 and 3 of the
// star's center on both sides, as a faulty restitch would, inside the
// window a migration's restitch opens for the guard. Every link left is
// symmetric, but part 3 now takes part 1 for the owner, the others
// part 0.
func bugRestitchUnlink(c *pcu.Ctx) error {
	dm := corpusStar(c)
	for _, part := range dm.Parts {
		var center mesh.Ent
		for v := range part.M.PartBoundary(0) {
			center = v
		}
		if p := part.M.Part(); p == 0 || p == 3 {
			resume := part.M.SuspendGuard()
			part.M.RemoveRemote(center, 3-p)
			resume()
		}
	}
	return verified(dm)
}

func bugGhostWrite(c *pcu.Ctx) error {
	dm := corpusMesh(c)
	partition.Ghost(dm, 0, 1)
	m := dm.Parts[0].M
	for v := range m.Iter(0) {
		if m.IsGhost(v) {
			m.SetCoord(v, m.Coord(v).Scale(1.01))
			break
		}
	}
	return verified(dm)
}

func bugForeignWrite(c *pcu.Ctx) error {
	dm := corpusMesh(c)
	m := dm.Parts[0].M
	v, _, _ := innerVertex(m)
	onOtherGoroutine(func() {
		m.SetCoord(v, m.Coord(v).Scale(1.01))
	})
	return verified(dm)
}

func bugPartialDecode(c *pcu.Ctx) error {
	peer := (c.Rank() + 1) % c.Size()
	c.To(peer).Int64(1)
	c.To(peer).Int64(2)
	for _, m := range c.Exchange() {
		m.Data.Int64() //pumi-vet:ignore bufdiscipline
	}
	return nil
}

type syncer interface{ sync(*pcu.Ctx) }

type barrierSyncer struct{}

func (barrierSyncer) sync(c *pcu.Ctx) { c.Barrier() }

func bugInterfaceCollective(c *pcu.Ctx) error {
	var s syncer = barrierSyncer{}
	if c.Rank() == 0 {
		s.sync(c)
	}
	return nil
}

// ---- what the bodies share ----

var corpusModel = gmi.Box(3, 1, 1)

// corpusMesh distributes a 3x1x1 box of 18 tets, one part per rank;
// part 0 gets the first two cells, so part-local counts differ (12, 6).
func corpusMesh(c *pcu.Ctx) *partition.DMesh {
	var serial *mesh.Mesh
	var assign []int32
	if c.Rank() == 0 {
		serial = meshgen.Box3D(corpusModel, 3, 1, 1)
		n := serial.Count(3)
		for i := 0; i < n; i++ {
			assign = append(assign, int32(min(3*i/n, 1)))
		}
	}
	dm, err := partition.Distribute(c, corpusModel.Model, 3, serial, assign, 1)
	if err != nil {
		panic(err)
	}
	return dm
}

// corpusStar distributes a star of four edges over four parts, two per
// rank, so that its center vertex resides on every part.
func corpusStar(c *pcu.Ctx) *partition.DMesh {
	var serial *mesh.Mesh
	var assign []int32
	if c.Rank() == 0 {
		serial = mesh.New(nil, 1)
		center := serial.CreateVertex(gmi.NoRef, vec.V{})
		for i := range 4 {
			w := serial.CreateVertex(gmi.NoRef, vec.V{X: float64(i + 1)})
			serial.CreateEntity(mesh.Edge, gmi.NoRef, []mesh.Ent{center, w})
			assign = append(assign, int32(i))
		}
	}
	dm, err := partition.Distribute(c, nil, 1, serial, assign, 2)
	if err != nil {
		panic(err)
	}
	return dm
}

// verified ends a mesh body with the distributed verifier.
func verified(dm *partition.DMesh) error {
	if err := partition.Verify(dm); err != nil {
		return fmt.Errorf("%w: %v", errVerify, err)
	}
	return nil
}

// innerVertex finds an owned vertex off the part boundary that bounds
// more than one element, and one of those elements.
func innerVertex(m *mesh.Mesh) (v, el mesh.Ent, ok bool) {
	var buf []mesh.Ent
	for v := range m.Iter(0) {
		if m.IsShared(v) {
			continue
		}
		if buf = m.AdjacentTo(v, 3, buf[:0]); len(buf) > 1 {
			return v, buf[0], true
		}
	}
	return mesh.Ent{}, mesh.Ent{}, false
}

// corpusWeights is a map big enough that its iteration order differs
// between runs.
func corpusWeights() map[int64]int64 {
	w := map[int64]int64{}
	for k := int64(0); k < 64; k++ {
		w[k] = k * k
	}
	return w
}

// onOtherGoroutine runs f on a fresh goroutine and waits for it; a
// panic there is re-raised on the caller's goroutine.
func onOtherGoroutine(f func()) {
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	if p := <-done; p != nil {
		panic(p)
	}
}

// corpusPhase mirrors the partition layer's phased exchange: to opens a
// send buffer, and an exchange must follow.
type corpusPhase struct{ c *pcu.Ctx }

func beginPhase(c *pcu.Ctx) *corpusPhase { return &corpusPhase{c} }

func (ph *corpusPhase) to(peer int) *pcu.Buffer { return ph.c.To(peer) }

// ---- the harness ----

// staticCatches runs each analyzer over this file, ignore directives
// stripped, and returns the analyzers that report inside each function,
// by name.
func staticCatches(t *testing.T) map[string][]string {
	l := fixtureLoader(t)
	f, err := parser.ParseFile(l.Fset, "corpus_test.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	f.Comments = slices.DeleteFunc(f.Comments, func(g *ast.CommentGroup) bool {
		return slices.ContainsFunc(g.List, func(c *ast.Comment) bool { return strings.HasPrefix(c.Text, "//pumi-vet:ignore") })
	})
	pkgs := []*Package{l.check("corpus", []*ast.File{f})}
	caught := map[string][]string{}
	for _, a := range Analyzers() {
		for _, d := range Run(pkgs, []*Analyzer{a}) {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && d.Pos.Line >= l.Fset.Position(fd.Pos()).Line && d.Pos.Line <= l.Fset.Position(fd.End()).Line &&
					!slices.Contains(caught[fd.Name.Name], a.Name) {
					caught[fd.Name.Name] = append(caught[fd.Name.Name], a.Name)
				}
			}
		}
	}
	return caught
}

// dynamicCatches runs the body plainly once and sanitized up to
// corpusRepeats times, and returns the dynamic layers that fired.
func dynamicCatches(t *testing.T, bug seededBug) []string {
	var got []string
	_, err := pcu.RunOpt(corpusRanks, pcu.Options{StallTimeout: corpusStall}, bug.body)
	switch {
	case errors.Is(err, pcu.ErrMismatch):
		got = append(got, layerRendezvous)
	case errors.Is(err, pcu.ErrStalled):
		got = append(got, layerWatchdog)
	case errors.Is(err, errVerify):
		got = append(got, layerVerify)
	case err != nil:
		t.Logf("%s: plain run: %s", bug.fn(), strings.SplitN(err.Error(), "\n", 2)[0])
	}
	san.Enable()
	defer san.Disable()
	var first uint64
	for i := 0; i < corpusRepeats; i++ {
		st, err := pcu.RunOpt(corpusRanks, pcu.Options{StallTimeout: corpusStall}, bug.body)
		if errors.Is(err, san.ErrOwnership) ||
			(err == nil && i > 0 && st.SanHash != first) {
			got = append(got, layerSan)
			break
		}
		if err != nil {
			break
		}
		first = st.SanHash
	}
	return got
}

// TestSeededBugCorpus runs every seeded bug through every layer and
// holds the result to the corpus table: every bug is caught by some
// layer, and every layer catches some bug no other layer catches — the
// reason it exists.
func TestSeededBugCorpus(t *testing.T) {
	var layers []string
	for _, a := range Analyzers() {
		layers = append(layers, a.Name)
	}
	layers = append(layers, layerRendezvous, layerSan, layerWatchdog, layerVerify)
	static := staticCatches(t)
	unique := map[string]int{}
	var table strings.Builder
	fmt.Fprintf(&table, "| bug | %s |\n|---|%s\n", strings.Join(layers, " | "), strings.Repeat("---|", len(layers)))
	for _, bug := range corpus {
		got := append(static[bug.fn()], dynamicCatches(t, bug)...)
		switch len(got) {
		case 0:
			t.Errorf("%s: no layer catches it", bug.name)
		case 1:
			unique[got[0]]++
		}
		if !sameLayers(got, bug.want) {
			t.Errorf("%s: caught by %v, want %v", bug.name, got, bug.want)
		}
		fmt.Fprintf(&table, "| %s |", bug.name)
		for _, l := range layers {
			mark := " "
			if slices.Contains(got, l) {
				mark = "x"
			}
			fmt.Fprintf(&table, " %s |", mark)
		}
		table.WriteString("\n")
	}
	for _, l := range layers {
		if unique[l] == 0 {
			t.Errorf("layer %s catches nothing the others miss", l)
		}
	}
	t.Log("\n" + table.String())
}

func sameLayers(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
