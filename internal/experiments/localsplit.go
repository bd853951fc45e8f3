package experiments

import (
	"bytes"
	"fmt"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// LocalSplitConfig scales the large-part-count study from §III-A: the
// paper creates a 1.5M-part mesh by locally splitting each part of a
// 16,384-part mesh into 96, observes the vertex imbalance jump from 9%
// to 54%, and recovers more than 10 points with ParMA Vtx>Rgn.
type LocalSplitConfig struct {
	NX, NY, NZ int
	// CoarseParts is the globally partitioned part count.
	CoarseParts int
	// SplitFactor multiplies the part count by local splitting.
	SplitFactor int
	// Ranks is the process count (must divide both part counts).
	Ranks int
}

// DefaultLocalSplitConfig splits 4 global parts x16 into 64 small
// parts (~80 tets each), where boundary duplication spikes the vertex
// imbalance the way the paper's 1.5M-part mesh does.
func DefaultLocalSplitConfig() LocalSplitConfig {
	return LocalSplitConfig{NX: 14, NY: 14, NZ: 7, CoarseParts: 4, SplitFactor: 16, Ranks: 4}
}

// LocalSplitResult reports the imbalance at each stage.
type LocalSplitResult struct {
	Config LocalSplitConfig
	// CoarseVtxImb is the vertex imbalance of the global partition.
	CoarseVtxImb float64
	// SplitVtxImb after local splitting (the spike).
	SplitVtxImb float64
	// ParMAVtxImb after ParMA Vtx>Rgn improvement.
	ParMAVtxImb float64
	RgnImbAfter float64
}

// RunLocalSplit reproduces the local-splitting imbalance spike and
// ParMA's recovery.
func RunLocalSplit(cfg LocalSplitConfig) (LocalSplitResult, error) {
	res := LocalSplitResult{Config: cfg}
	model := gmi.Box(2, 2, 1)
	fine := cfg.CoarseParts * cfg.SplitFactor
	if fine%cfg.Ranks != 0 {
		return res, fmt.Errorf("experiments: %d parts not divisible by %d ranks", fine, cfg.Ranks)
	}
	k := fine / cfg.Ranks
	err := pcu.Run(cfg.Ranks, func(ctx *pcu.Ctx) error {
		// Global partition to CoarseParts, placed on part ids
		// p*SplitFactor so each coarse part has empty sibling slots.
		var serial *mesh.Mesh
		var assign []int32
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, cfg.NX, cfg.NY, cfg.NZ)
			g, _ := zpart.DualGraph(serial)
			assign = zpart.MLGraph(g, cfg.CoarseParts)
			for i := range assign {
				assign[i] *= int32(cfg.SplitFactor)
			}
		}
		dm, err := partition.Distribute(ctx, model.Model, 3, serial, assign, k)
		if err != nil {
			return err
		}
		coarseImb := occupiedImbalance(dm, 0)

		// Local split: every non-empty part RIBs its own elements into
		// SplitFactor pieces with no global view.
		plans := make([]partition.Plan, len(dm.Parts))
		for i, part := range dm.Parts {
			m := part.M
			if m.CountType(mesh.Tet) == 0 {
				continue
			}
			in, els := zpart.Centroids(m)
			sub := zpart.RIB(in, cfg.SplitFactor)
			plans[i] = partition.Plan{}
			for j, el := range els {
				if sub[j] > 0 {
					plans[i][el] = m.Part() + int32(sub[j])
				}
			}
		}
		if err := partition.TryMigrate(dm, plans); err != nil {
			return err
		}
		_, splitImb := partition.EntityImbalance(dm, 0)

		pri, _ := parma.ParsePriority("Vtx>Rgn")
		if _, err := parma.BalanceSafe(dm, pri, parma.Config{Tolerance: 1.05, MaxIters: 80}); err != nil {
			return err
		}
		_, afterImb := partition.EntityImbalance(dm, 0)
		_, rgnImb := partition.EntityImbalance(dm, 3)
		if err := partition.CheckDistributed(dm); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			res.CoarseVtxImb = coarseImb
			res.SplitVtxImb = splitImb
			res.ParMAVtxImb = afterImb
			res.RgnImbAfter = rgnImb
		}
		return nil
	})
	return res, err
}

// occupiedImbalance computes max/mean over the non-empty parts only
// (the coarse stage leaves the sibling slots empty by construction).
func occupiedImbalance(dm *partition.DMesh, dim int) float64 {
	counts := partition.GatherCounts(dm, dim)
	var occ []int64
	for _, c := range counts {
		if c > 0 {
			occ = append(occ, c)
		}
	}
	_, imb := partition.Imbalance(occ)
	return imb
}

// FormatLocalSplit renders the result.
func FormatLocalSplit(res LocalSplitResult) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "global partition to %d parts:         vtx imbalance %.1f%%\n",
		res.Config.CoarseParts, (res.CoarseVtxImb-1)*100)
	fmt.Fprintf(&b, "local split x%d to %d parts:           vtx imbalance %.1f%% (the spike)\n",
		res.Config.SplitFactor, res.Config.CoarseParts*res.Config.SplitFactor,
		(res.SplitVtxImb-1)*100)
	fmt.Fprintf(&b, "after ParMA Vtx>Rgn:                  vtx imbalance %.1f%% (rgn %.1f%%)\n",
		(res.ParMAVtxImb-1)*100, (res.RgnImbAfter-1)*100)
	fmt.Fprintf(&b, "improvement: %.1f points (paper: >10 points on the 1.5M-part mesh)\n",
		(res.SplitVtxImb-res.ParMAVtxImb)*100)
	return b.String()
}
