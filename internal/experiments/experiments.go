// Package experiments implements the paper's evaluation: one driver per
// table and figure, shared by the pumi-bench command and the root
// benchmark suite. Every driver runs at a configurable scale; defaults
// reproduce the paper's shape (who wins, by what rough factor) on a
// laptop rather than its absolute numbers from Jaguar/Mira.
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// TableConfig scales the Table I-III reproduction (the AAA multi-criteria
// partition improvement study).
type TableConfig struct {
	// NS and N set the vessel surrogate grid: about 6*NS*N*N tets
	// stand in for the paper's 133M-tet AAA mesh.
	NS, N int
	// Parts is the target part count (paper: 16,384).
	Parts int
	// Ranks is the number of processes; Parts/Ranks parts per process
	// (paper: 512 cores x 32 parts).
	Ranks int
	// Tol is the imbalance tolerance (paper: 5% -> 1.05).
	Tol float64
	// MaxIters bounds ParMA iterations per entity type.
	MaxIters int
}

// DefaultTableConfig runs in seconds on a laptop: ~35k tets on 32 parts
// over 8 ranks.
func DefaultTableConfig() TableConfig {
	return TableConfig{NS: 40, N: 12, Parts: 32, Ranks: 8, Tol: 1.05, MaxIters: 100}
}

// Tests lists the paper's Table I test matrix.
var Tests = []struct {
	Name     string
	Method   string // "PHG" or a ParMA priority
	Priority string
}{
	{"T0", "Zoltan-style hypergraph (PHG)", ""},
	{"T1", "ParMA", "Vtx>Rgn"},
	{"T2", "ParMA", "Vtx=Edge>Rgn"},
	{"T3", "ParMA", "Edge>Rgn"},
	{"T4", "ParMA", "Edge=Face>Rgn"},
}

// TableRow is one line of the Table II / Table III reproduction.
type TableRow struct {
	Test     string
	Mean     [4]float64 // mean entity count per part, per dimension
	Imb      [4]float64 // peak imbalance (max / T0 mean), per dimension
	Balanced [4]bool    // which dims the test balances (for display)
	Seconds  float64    // Table III
	Boundary int64      // total shared entities (vtx) after the test
}

// Fig12Series carries the per-part normalized vertex and edge counts
// before and after ParMA test T2 (Fig 12 of the paper).
type Fig12Series struct {
	VtxBefore, VtxAfter   []float64
	EdgeBefore, EdgeAfter []float64
}

// TableResult bundles the Table I-III reproduction outputs.
type TableResult struct {
	Config TableConfig
	Rows   []TableRow
	Fig12  Fig12Series
	// SerialElems is the element count of the generated mesh.
	SerialElems int
}

// RunTable reproduces Tables I, II and III and Fig 12: generate the AAA
// surrogate, partition with the hypergraph method (T0, timed), then for
// each ParMA test re-distribute the T0 partition and run multi-criteria
// improvement (timed), recording per-entity means and peak imbalances.
func RunTable(cfg TableConfig) (TableResult, error) {
	res := TableResult{Config: cfg}
	if cfg.Parts%cfg.Ranks != 0 {
		return res, fmt.Errorf("experiments: parts %d not divisible by ranks %d", cfg.Parts, cfg.Ranks)
	}
	k := cfg.Parts / cfg.Ranks
	model := gmi.Vessel(10, 1, 0.6, 1.2)

	// Generate and partition serially once; reuse via serialization.
	serial := meshgen.Vessel3D(model, cfg.NS, cfg.N)
	res.SerialElems = serial.Count(3)
	t0 := time.Now()
	hg, _ := zpart.ElementHypergraph(serial, 0)
	assign := zpart.PHG(hg, cfg.Parts)
	phgSeconds := time.Since(t0).Seconds()
	var blob bytes.Buffer
	if err := meshio.Write(&blob, serial); err != nil {
		return res, err
	}

	var t0Mean [4]float64
	for ti, test := range Tests {
		row := TableRow{Test: test.Name}
		var pri parma.Priority
		if test.Priority != "" {
			var err error
			pri, err = parma.ParsePriority(test.Priority)
			if err != nil {
				return res, err
			}
			for _, dims := range pri {
				for _, d := range dims {
					row.Balanced[d] = true
				}
			}
		} else {
			for d := range row.Balanced {
				row.Balanced[d] = true
			}
		}
		var fig Fig12Series
		// Each test consumes a serial mesh: decode a fresh one up front.
		sm, err := meshio.Read(bytes.NewReader(blob.Bytes()), model.Model)
		if err != nil {
			return res, err
		}
		err = pcu.Run(cfg.Ranks, func(ctx *pcu.Ctx) error {
			dm, err := partition.Distribute(ctx, model.Model, 3, sm, assign, k)
			if err != nil {
				return err
			}

			var before [4][]int64
			for d := 0; d <= 3; d++ {
				before[d] = partition.GatherCounts(dm, d)
			}
			elapsed := phgSeconds
			if pri != nil {
				start := time.Now()
				if _, err := parma.BalanceSafe(dm, pri, parma.Config{Tolerance: cfg.Tol, MaxIters: cfg.MaxIters}); err != nil {
					return err
				}
				elapsed = time.Since(start).Seconds()
			}
			// Gather on every rank (collective); record on rank 0 only
			// so the shared result structs see a single writer.
			for d := 0; d <= 3; d++ {
				counts := partition.GatherCounts(dm, d)
				mean, _ := partition.Imbalance(counts)
				if ctx.Rank() != 0 {
					continue
				}
				row.Mean[d] = mean
				ref := mean
				if ti > 0 {
					ref = t0Mean[d]
				}
				var max int64
				for _, c := range counts {
					if c > max {
						max = c
					}
				}
				if ref > 0 {
					row.Imb[d] = float64(max) / ref
				}
				if test.Name == "T2" {
					norm := func(cs []int64, m float64) []float64 {
						out := make([]float64, len(cs))
						for i, c := range cs {
							out[i] = float64(c) / m
						}
						return out
					}
					bm, _ := partition.Imbalance(before[d])
					switch d {
					case 0:
						fig.VtxBefore = norm(before[d], bm)
						fig.VtxAfter = norm(counts, bm)
					case 1:
						fig.EdgeBefore = norm(before[d], bm)
						fig.EdgeAfter = norm(counts, bm)
					}
				}
			}
			tr := partition.GatherBoundaryTraffic(dm, 0)
			if ctx.Rank() == 0 {
				row.Seconds = elapsed
				row.Boundary = tr.SharedTotal
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		if ti == 0 {
			t0Mean = row.Mean
		}
		if test.Name == "T2" {
			res.Fig12 = fig
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// FormatTable renders the Table II / III reproduction the way the paper
// prints it.
func FormatTable(res TableResult) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "AAA surrogate: %d tets on %d parts (%d ranks x %d parts/rank), tol %.0f%%\n",
		res.SerialElems, res.Config.Parts, res.Config.Ranks,
		res.Config.Parts/res.Config.Ranks, (res.Config.Tol-1)*100)
	fmt.Fprintf(&b, "%-4s %-34s %10s %8s %10s %8s %10s %8s %10s %8s %9s %9s\n",
		"Test", "Method", "MeanRgn", "RgnImb%", "MeanFace", "FaceImb%",
		"MeanEdge", "EdgeImb%", "MeanVtx", "VtxImb%", "Time(s)", "BndVtx")
	for i, row := range res.Rows {
		method := Tests[i].Method
		if Tests[i].Priority != "" {
			method += " " + Tests[i].Priority
		}
		cell := func(d int) (string, string) {
			if !row.Balanced[d] && row.Test != "T0" {
				return "-", "-"
			}
			return fmt.Sprintf("%.0f", row.Mean[d]), fmt.Sprintf("%.2f", (row.Imb[d]-1)*100)
		}
		mr, ir := cell(3)
		mf, iff := cell(2)
		me, ie := cell(1)
		mv, iv := cell(0)
		// Region means always shown (the paper reports MeanRgn for all).
		mr = fmt.Sprintf("%.0f", row.Mean[3])
		ir = fmt.Sprintf("%.2f", (row.Imb[3]-1)*100)
		fmt.Fprintf(&b, "%-4s %-34s %10s %8s %10s %8s %10s %8s %10s %8s %9.3f %9d\n",
			row.Test, method, mr, ir, mf, iff, me, ie, mv, iv, row.Seconds, row.Boundary)
	}
	return b.String()
}
