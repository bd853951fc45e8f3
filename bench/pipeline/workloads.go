package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/fastmath/pumi-go/internal/adapt"
	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// ranks is fixed: the box has two cores, and more goroutine ranks than
// cores would report oversubscribed wall-clock.
const ranks = 2

// sizes scales the inputs; the quick set exists for the smoke test.
type sizes struct {
	vesselNS, vesselN int // Vessel3D grid: 6*ns*n*n tets
	box               int // Box3D(box, box, box): 6*box^3 tets
	steps             int // solver steps per halo-offnode cycle
}

var (
	fullSizes  = sizes{vesselNS: 36, vesselN: 12, box: 8, steps: 500}
	quickSizes = sizes{vesselNS: 18, vesselN: 6, box: 5, steps: 50}
)

// inputs are the generated inputs of one run: everything the seed
// perturbs. The library sees meshes and plans, never the seed.
type inputs struct {
	bulge, bend float64 // vessel shape
	shockOffset float64 // shift of the shock band's mid-plane
	tagSalt     int64   // mixes into the tag payload values
}

func makeInputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	return inputs{
		bulge:       0.599 + 0.002*rng.Float64(),
		bend:        1.198 + 0.004*rng.Float64(),
		shockOffset: 2e-4*rng.Float64() - 1e-4,
		tagSalt:     rng.Int63n(1 << 20),
	}
}

// workload is one of the four closed-loop workloads, as one rank sees it.
type workload interface {
	// topo and partsPerRank lay the run out.
	topo() hwtopo.Topology
	partsPerRank() int
	// freshPerCycle reports that every cycle starts from a new set-up.
	freshPerCycle() bool
	// setup builds the distributed mesh, ready for a cycle.
	setup(h *harness) error
	// cycle runs one pass of the workload's stages through h.
	cycle(h *harness)
	// state returns the global region count and the workload's
	// imbalance figure at the end of a cycle (collective).
	state() (elements int64, imbalance float64)
	// mesh returns the distributed mesh whose footprint is the
	// workload's live-bytes figure, dropping every other one.
	mesh() *partition.DMesh
}

func newWorkload(name string, sz sizes, in inputs, scratch string) (workload, error) {
	v := vessel{sz: sz, in: in}
	switch name {
	case RepartitionVessel16:
		v.k, v.withB = 8, true
		return &repartition{vessel: v}, nil
	case HaloOffnode:
		v.k, v.offnode = 8, true
		return &halo{vessel: v}, nil
	case ParmaVessel32:
		v.k = 16
		return newParmaWorkload(v)
	case AdaptShock:
		return &adaptShock{sz: sz, in: in, dir: filepath.Join(scratch, "checkpoint-"+AdaptShock)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// vessel is the distributed vessel mesh three workloads share: generated
// on rank 0, partitioned serially into assignment A (multilevel graph)
// and optionally B (recursive coordinate bisection), and scattered to A.
type vessel struct {
	sz      sizes
	in      inputs
	k       int
	withB   bool
	offnode bool

	dm           *partition.DMesh
	destA, destB []int32 // destination part by element global id
	elements     int64
	countsA      []int64 // regions per part under A
	imbalanceA   float64
}

func (v *vessel) topo() hwtopo.Topology {
	if v.offnode {
		return hwtopo.Cluster(ranks, 1)
	}
	return hwtopo.Cluster(1, ranks)
}
func (v *vessel) partsPerRank() int      { return v.k }
func (v *vessel) freshPerCycle() bool    { return false }
func (v *vessel) mesh() *partition.DMesh { return v.dm }

func (v *vessel) setup(h *harness) error {
	model := gmi.Vessel(10, 1, v.in.bulge, v.in.bend)
	nparts := int32(ranks * v.k)
	var serial *mesh.Mesh
	var assignA, assignB []int32
	var elsA, elsB []mesh.Ent
	if err := h.setupStage("meshgen.generate", func() error {
		if h.rank0() {
			serial = meshgen.Vessel3D(model, v.sz.vesselNS, v.sz.vesselN)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := h.setupStage("zpart.mlgraph", func() error {
		if h.rank0() {
			var g *zpart.Graph
			g, elsA = zpart.DualGraph(serial)
			assignA = zpart.MLGraph(g, int(nparts))
		}
		return nil
	}); err != nil {
		return err
	}
	if v.withB {
		if err := h.setupStage("zpart.rcb", func() error {
			if h.rank0() {
				var in zpart.GeomInput
				in, elsB = zpart.Centroids(serial)
				assignB = zpart.RCB(in, int(nparts))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if err := h.setupStage("partition.scatter", func() error {
		v.dm = partition.Adopt(h.ctx, model.Model, 3, serial, v.k)
		if h.rank0() {
			p := v.dm.Parts[0]
			v.destA = destByGid(p, elsA, assignA)
			if v.withB {
				v.destB = destByGid(p, elsB, assignB)
			}
		}
		v.destA = pcu.Bcast(h.ctx, 0, v.destA)
		v.destB = pcu.Bcast(h.ctx, 0, v.destB)
		return partition.TryMigrate(v.dm, planTo(v.dm, v.destA))
	}); err != nil {
		return err
	}
	if err := h.setupStage("mesh.verify", func() error { return partition.Verify(v.dm) }); err != nil {
		return err
	}
	v.elements = partition.GlobalCount(v.dm, 3)
	v.countsA = partition.GatherCounts(v.dm, 3)
	_, v.imbalanceA = partition.Imbalance(v.countsA)
	bt := partition.GatherBoundaryTraffic(v.dm, 0)
	h.note("zpart.offnode_shared_share", ratio(float64(bt.SharedOffNode), float64(bt.SharedTotal)))
	h.note("setup.elements", float64(v.elements))
	return nil
}

// destByGid turns a partitioner's assignment, aligned with els, into a
// table indexed by element global id. Initial ids are dense from zero.
func destByGid(p *partition.Part, els []mesh.Ent, assign []int32) []int32 {
	dest := make([]int32, len(els))
	for i, el := range els {
		dest[p.Gid(el)] = assign[i]
	}
	return dest
}

// planTo builds this rank's migration plans that send every local
// element to dest[its global id]. Elements already there are left out.
func planTo(dm *partition.DMesh, dest []int32) []partition.Plan {
	plans := make([]partition.Plan, len(dm.Parts))
	for i, p := range dm.Parts {
		plan := partition.Plan{}
		for el := range p.M.Elements() {
			if d := dest[p.Gid(el)]; d != p.M.Part() {
				plan[el] = d
			}
		}
		plans[i] = plan
	}
	return plans
}

func planSize(ctx *pcu.Ctx, plans []partition.Plan) int64 {
	n := 0
	for _, p := range plans {
		n += len(p)
	}
	return pcu.SumInt64(ctx, int64(n))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sameCounts checks that the regions per part are what they were under
// assignment A.
func sameCounts(dm *partition.DMesh, want []int64, after string) error {
	if got := partition.GatherCounts(dm, 3); !slices.Equal(got, want) {
		return fmt.Errorf("regions per part %v after %s, want %v", got, after, want)
	}
	return nil
}

// repartition is repartition-vessel16: bulk migration A->B->A.
type repartition struct {
	vessel
}

func (w *repartition) state() (int64, float64) { return w.elements, w.imbalanceA }

func (w *repartition) cycle(h *harness) {
	dm := w.dm
	plans := planTo(dm, w.destB)
	moved := planSize(h.ctx, plans)
	h.stage("partition.migrate_ab", func() error { return partition.TryMigrate(dm, plans) })
	h.untimed("bench.plan", func() error {
		plans = planTo(dm, w.destA)
		moved += planSize(h.ctx, plans)
		return nil
	})
	h.stage("partition.migrate_ba", func() error { return partition.TryMigrate(dm, plans) })
	h.stage("mesh.verify", func() error { return partition.Verify(dm) })
	h.untimed("bench.counts", func() error { return sameCounts(dm, w.countsA, "A->B->A") })
	h.note("partition.migrate_elements_moved", float64(moved))
}

// halo is halo-offnode: the solver inner loop over cached boundary
// plans, across a node boundary.
type halo struct {
	vessel
	acc      [][]float64 // per local part, by vertex slot: reduced contributions
	mismatch int64       // synced vertex payloads that differ from the local copy
}

const haloTag = "u"

func (w *halo) state() (int64, float64) { return w.elements, w.imbalanceA }

func (w *halo) setup(h *harness) error {
	if err := w.vessel.setup(h); err != nil {
		return err
	}
	for _, p := range w.dm.Parts {
		if p.M.Tags.Find(haloTag) == nil {
			if _, err := p.M.Tags.Create(haloTag, ds.TagFloat, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *halo) cycle(h *harness) {
	dm := w.dm
	steps := w.sz.steps
	first := int32(h.ctx.Rank() * w.k)
	vertices := []int{0}
	// Owner values change every cycle, so a stale ghost cannot pass.
	// They are small whole numbers: their sums are exact in any order.
	for _, p := range dm.Parts {
		tag := p.M.Tags.Find(haloTag)
		for el := range p.M.Elements() {
			p.M.Tags.SetFloat(tag, el, float64((p.Gid(el)*7+w.in.tagSalt+int64(h.cycle))%1021))
		}
	}
	h.stage("partition.ghost_build", func() error { partition.Ghost(dm, 2, 1); return nil })

	ghosts := int64(0)
	h.untimed("bench.prepare", func() error {
		w.acc, w.mismatch = w.acc[:0], 0
		for _, p := range dm.Parts {
			top := int32(0)
			for v := range p.M.Iter(0) {
				top = max(top, v.I+1)
			}
			w.acc = append(w.acc, make([]float64, top))
			for el := range p.M.Elements() {
				if p.M.IsGhost(el) {
					ghosts++
				}
			}
		}
		ghosts = pcu.SumInt64(h.ctx, ghosts)
		return nil
	})
	packXYZ := func(p *partition.Part, e mesh.Ent, b *pcu.Buffer) {
		c := p.M.Coord(e)
		b.Float64(c.X)
		b.Float64(c.Y)
		b.Float64(c.Z)
	}
	applyXYZ := func(p *partition.Part, e mesh.Ent, r *pcu.Reader) {
		got := vec.V{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
		if got != p.M.Coord(e) {
			w.mismatch++
		}
	}
	packOne := func(p *partition.Part, e mesh.Ent, b *pcu.Buffer) { b.Float64(1) }
	applySum := func(p *partition.Part, e mesh.Ent, r *pcu.Reader) {
		w.acc[p.M.Part()-first][e.I] += r.Float64()
	}
	// One solver step: owners push cell values to ghosts, owners push
	// nodal vectors to copies, copies accumulate a nodal scalar to owners.
	var tGhost, tSync, tReduce time.Duration
	step := func() {
		partition.SyncGhostFloatTag(dm, haloTag)
		partition.SyncShared(dm, vertices, packXYZ, applyXYZ)
		partition.ReduceShared(dm, vertices, packOne, applySum)
	}
	if h.traced {
		step = func() {
			t0 := time.Now()
			partition.SyncGhostFloatTag(dm, haloTag)
			t1 := time.Now()
			partition.SyncShared(dm, vertices, packXYZ, applyXYZ)
			t2 := time.Now()
			partition.ReduceShared(dm, vertices, packOne, applySum)
			tGhost += t1.Sub(t0)
			tSync += t2.Sub(t1)
			tReduce += time.Since(t2)
		}
	}
	// The first step after a ghost build compiles the boundary plans.
	h.stage("partition.replan", func() error { step(); return nil })
	tGhost, tSync, tReduce = 0, 0, 0
	h.stage("partition.steps", func() error {
		for i := 0; i < steps; i++ {
			step()
		}
		return nil
	})

	h.untimed("bench.ghost_checksum", func() error {
		var ghostSum, ownerSum float64
		for _, p := range dm.Parts {
			tag := p.M.Tags.Find(haloTag)
			for el := range p.M.Elements() {
				u, _ := p.M.Tags.GetFloat(tag, el)
				if p.M.IsGhost(el) {
					ghostSum += u
				} else {
					ownerSum += u * float64(len(p.GhostCopies(el)))
				}
			}
		}
		ghostSum = pcu.SumFloat64(h.ctx, ghostSum)
		ownerSum = pcu.SumFloat64(h.ctx, ownerSum)
		if ghostSum != ownerSum || ghosts == 0 {
			return fmt.Errorf("ghost copies sum to %v, their owners to %v (%d ghosts)", ghostSum, ownerSum, ghosts)
		}
		return nil
	})
	h.untimed("bench.reduce_counts", func() error {
		var wrong int64
		for i, p := range dm.Parts {
			for v := range p.M.PartBoundary(0) {
				if p.M.IsOwned(v) && !p.M.IsGhost(v) && w.acc[i][v.I] != float64((steps+1)*p.M.NRemotes(v)) {
					wrong++
				}
			}
		}
		if wrong = pcu.SumInt64(h.ctx, wrong); wrong != 0 {
			return fmt.Errorf("%d owned vertices did not receive one contribution per copy per step", wrong)
		}
		return nil
	})
	h.untimed("bench.sync_payload", func() error {
		if n := pcu.SumInt64(h.ctx, w.mismatch); n != 0 {
			return fmt.Errorf("%d synced vertex payloads differ from the owner's", n)
		}
		return nil
	})

	h.stage("partition.ghost_remove", func() error { partition.RemoveGhosts(dm); return nil })
	h.note("partition.ghost_elements", float64(ghosts))
	if h.traced {
		perStep := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(steps) }
		h.note("partition.sync_ghost_us", perStep(tGhost))
		h.note("partition.sync_shared_us", perStep(tSync))
		h.note("partition.reduce_shared_us", perStep(tReduce))
	}
}

// parmaWorkload is parma-vessel32: the paper's tests T1-T4, each from
// assignment A.
type parmaWorkload struct {
	vessel
	tests      []parma.Priority
	worstAfter float64
}

// parmaTests are the priority lists of the paper's Table I.
var parmaTests = []string{"Vtx>Rgn", "Vtx=Edge>Rgn", "Edge>Rgn", "Edge=Face>Rgn"}

var dimNames = []string{"vtx", "edge", "face", "rgn"}

func newParmaWorkload(v vessel) (*parmaWorkload, error) {
	w := &parmaWorkload{vessel: v}
	for _, t := range parmaTests {
		pri, err := parma.ParsePriority(t)
		if err != nil {
			return nil, err
		}
		w.tests = append(w.tests, pri)
	}
	return w, nil
}

func (w *parmaWorkload) state() (int64, float64) { return w.elements, w.worstAfter }

func (w *parmaWorkload) cycle(h *harness) {
	dm := w.dm
	cfg := parma.Config{Tolerance: 1.05, MaxIters: 100}
	iters := 0
	var before, after [4]float64
	w.worstAfter = 0
	for i, pri := range w.tests {
		var res parma.Result
		h.stage(fmt.Sprintf("parma.balance_t%d", i+1), func() error {
			var err error
			res, err = parma.BalanceSafe(dm, pri, cfg)
			return err
		})
		for _, l := range res.Levels {
			iters += l.Iters
			before[l.Dim] = max(before[l.Dim], l.Before)
			after[l.Dim] = max(after[l.Dim], l.After)
			w.worstAfter = max(w.worstAfter, l.After)
		}
		h.untimed("partition.reset", func() error { return partition.TryMigrate(dm, planTo(dm, w.destA)) })
		h.untimed("mesh.verify", func() error { return partition.Verify(dm) })
		h.untimed("bench.reset_counts", func() error { return sameCounts(dm, w.countsA, "reset") })
	}
	h.note("parma.iters", float64(iters))
	for d, name := range dimNames {
		h.note("parma.imbalance_before_"+name, before[d])
		h.note("parma.imbalance_after_"+name, after[d])
	}
}

// adaptShock is adapt-shock: the paper's Fig 13 loop with checkpoint
// and restore, each cycle from a fresh mesh.
type adaptShock struct {
	sz  sizes
	in  inputs
	dir string

	model     *gmi.BoxModel
	dm        *partition.DMesh
	restored  *partition.DMesh
	elements  int64
	imbalance float64
}

func (w *adaptShock) topo() hwtopo.Topology { return hwtopo.Cluster(1, ranks) }
func (w *adaptShock) partsPerRank() int     { return 4 }
func (w *adaptShock) freshPerCycle() bool   { return true }
func (w *adaptShock) state() (int64, float64) {
	return w.elements, w.imbalance
}

func (w *adaptShock) mesh() *partition.DMesh {
	w.dm = nil
	return w.restored
}

func (w *adaptShock) setup(h *harness) error {
	w.dm, w.restored = nil, nil
	w.model = gmi.Box(1, 1, 1)
	// One generation on disk, so checkpoint_bytes is one checkpoint.
	var rmErr error
	if h.rank0() {
		rmErr = os.RemoveAll(w.dir)
	}
	if err := agree(h.ctx, rmErr); err != nil {
		return err
	}
	k := w.partsPerRank()
	var serial *mesh.Mesh
	var assign []int32
	var els []mesh.Ent
	if err := h.setupStage("meshgen.generate", func() error {
		if h.rank0() {
			serial = meshgen.Box3D(w.model, w.sz.box, w.sz.box, w.sz.box)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := h.setupStage("zpart.rcb", func() error {
		if h.rank0() {
			var in zpart.GeomInput
			in, els = zpart.Centroids(serial)
			assign = zpart.RCB(in, ranks*k)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := h.setupStage("partition.scatter", func() error {
		w.dm = partition.Adopt(h.ctx, w.model.Model, 3, serial, k)
		var dest []int32
		if h.rank0() {
			dest = destByGid(w.dm.Parts[0], els, assign)
		}
		dest = pcu.Bcast(h.ctx, 0, dest)
		return partition.TryMigrate(w.dm, planTo(w.dm, dest))
	}); err != nil {
		return err
	}
	if err := h.setupStage("mesh.verify", func() error { return partition.Verify(w.dm) }); err != nil {
		return err
	}
	w.elements = partition.GlobalCount(w.dm, 3)
	h.note("setup.elements", float64(w.elements))
	bt := partition.GatherBoundaryTraffic(w.dm, 0)
	h.note("zpart.offnode_shared_share", ratio(float64(bt.SharedOffNode), float64(bt.SharedTotal)))
	return nil
}

// shockSize is the size field of the paper's Fig 13 at box scale: fine
// inside a slanted band that crosses several parts, coarse outside.
// Sizes follow the grid spacing 1/box, so the quick box refines by the
// same factor: 0.062 inside and 0.3 outside on the 10^3 box.
func shockSize(box int, offset float64) adapt.SizeField {
	mid := 0.5*(1+0.35) + offset
	fine, coarse := 0.62/float64(box), 3/float64(box)
	return func(p vec.V) float64 {
		if math.Abs(p.X+0.35*p.Y-mid) < 0.08 {
			return fine
		}
		return coarse
	}
}

func (w *adaptShock) cycle(h *harness) {
	dm := w.dm
	var st adapt.Stats
	h.stage("adapt.parallel", func() error {
		st = adapt.Parallel(dm, shockSize(w.sz.box, w.in.shockOffset), adapt.DefaultOptions())
		return nil
	})
	var spike float64
	h.untimed("bench.measure", func() error { _, spike = partition.EntityImbalance(dm, 3); return nil })

	cfg := parma.Config{Tolerance: 1.05, MaxIters: 40}
	var split parma.SplitResult
	h.stage("parma.split", func() error { split = parma.HeavyPartSplit(dm, cfg); return nil })
	var res parma.Result
	h.stage("parma.rebalance", func() error {
		var err error
		res, err = parma.BalanceSafe(dm, parma.Priority{{3}}, cfg)
		return err
	})
	var want [4]int64
	h.untimed("bench.measure", func() error {
		for d := range want {
			want[d] = partition.GlobalCount(dm, d)
		}
		w.elements = want[3]
		_, w.imbalance = partition.EntityImbalance(dm, 3)
		return nil
	})

	h.stage("meshio.save", func() error {
		return meshio.SaveCheckpoint(w.dir, dm, meshio.Cursor{Phase: AdaptShock, Iter: h.cycle})
	})
	var restored *partition.DMesh
	h.stage("meshio.load", func() error {
		var err error
		restored, _, err = meshio.LoadCheckpoint(w.dir, h.ctx, w.model.Model)
		return err
	})
	// LoadCheckpoint fails on every rank or on none.
	if restored != nil {
		h.stage("mesh.verify", func() error { return partition.Verify(restored) })
		h.untimed("bench.restored_counts", func() error {
			var got [4]int64
			for d := range got {
				got[d] = partition.GlobalCount(restored, d)
			}
			if got != want {
				return fmt.Errorf("restored entity counts %v, saved %v", got, want)
			}
			return nil
		})
		w.restored = restored
	}

	h.note("adapt.rounds", float64(st.Rounds))
	h.note("adapt.splits", float64(st.Splits))
	h.note("adapt.collapses", float64(st.Collapses))
	h.note("adapt.localized", float64(st.Localized))
	h.note("adapt.elements_after", float64(st.ElemAfter))
	h.note("adapt.spike_imbalance", spike)
	h.note("parma.split_pieces", float64(split.SplitPieces))
	iters := 0
	for _, l := range res.Levels {
		iters += l.Iters
	}
	h.note("parma.rebalance_iters", float64(iters))
	if h.rank0() {
		h.note("meshio.checkpoint_bytes", float64(dirBytes(w.dir)))
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
