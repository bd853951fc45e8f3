package experiments

import (
	"bytes"
	"fmt"
	"time"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// MigrateConfig scales the distributed-services study backing the
// paper's claims that PUMI's migration and ghosting operate efficiently
// from a few parts to very large part counts.
type MigrateConfig struct {
	// NX, NY, NZ set the box mesh (6*NX*NY*NZ tets).
	NX, NY, NZ int
	// PartCounts lists the part counts swept (one rank per part).
	PartCounts []int
}

// DefaultMigrateConfig sweeps a ~36k-tet mesh over 2..32 parts.
func DefaultMigrateConfig() MigrateConfig {
	return MigrateConfig{NX: 18, NY: 18, NZ: 18, PartCounts: []int{2, 4, 8, 16, 32}}
}

// MigratePoint is one sweep row.
type MigratePoint struct {
	Parts          int
	Elements       int64
	DistributeSecs float64 // full-mesh migration from 1 part to all
	PerElementUs   float64
	GhostSecs      float64 // one face-bridged ghost layer
	GhostElems     int64
	BoundaryVtx    int64
}

// RunMigrate measures distribution (migration) and ghost-layer
// construction across part counts on a fixed mesh.
func RunMigrate(cfg MigrateConfig) ([]MigratePoint, error) {
	model := gmi.Box(1, 1, 1)
	var out []MigratePoint
	for _, p := range cfg.PartCounts {
		pt := MigratePoint{Parts: p}
		err := pcu.Run(p, func(ctx *pcu.Ctx) error {
			var serial *mesh.Mesh
			var assign []int32
			if ctx.Rank() == 0 {
				serial = meshgen.Box3D(model, cfg.NX, cfg.NY, cfg.NZ)
				in, _ := zpart.Centroids(serial)
				assign = zpart.RCB(in, p)
			}
			ctx.Barrier()
			start := time.Now()
			dm, err := partition.Distribute(ctx, model.Model, 3, serial, assign, 1)
			if err != nil {
				return err
			}
			dist := time.Since(start).Seconds()

			elems := partition.GlobalCount(dm, 3)
			ctx.Barrier()
			start = time.Now()
			partition.Ghost(dm, 2, 1)
			ghost := time.Since(start).Seconds()
			var nGhost int64
			for _, part := range dm.Parts {
				nGhost += int64(part.NGhosts())
			}
			nGhost = pcu.SumInt64(ctx, nGhost)
			tr := partition.GatherBoundaryTraffic(dm, 0)
			partition.RemoveGhosts(dm)
			if err := partition.CheckDistributed(dm); err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				pt.Elements = elems
				pt.DistributeSecs = dist
				pt.PerElementUs = dist / float64(elems) * 1e6
				pt.GhostSecs = ghost
				pt.GhostElems = nGhost
				pt.BoundaryVtx = tr.SharedTotal
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// FormatMigrate renders the sweep.
func FormatMigrate(points []MigratePoint) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%6s %10s %14s %12s %12s %12s %10s\n",
		"parts", "elements", "distribute(s)", "us/elem", "ghost(s)", "ghost ents", "bnd vtx")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d %10d %14.4f %12.3f %12.4f %12d %10d\n",
			p.Parts, p.Elements, p.DistributeSecs, p.PerElementUs,
			p.GhostSecs, p.GhostElems, p.BoundaryVtx)
	}
	return b.String()
}
