package meshio

import (
	"testing"

	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/telemetry"
)

// TestCheckpointMetered checks a checkpoint round trip records save/load
// durations and per-part file sizes into the run's registry.
func TestCheckpointMetered(t *testing.T) {
	dir := t.TempDir()
	var reg *telemetry.Registry
	const ranks = 4
	err := pcu.Run(ranks, func(ctx *pcu.Ctx) error {
		if ctx.Rank() == 0 {
			reg = ctx.Metrics()
		}
		dm := buildDistributed(ctx, 1)
		if err := SaveCheckpoint(dir, dm, Cursor{Phase: "test"}); err != nil {
			return err
		}
		_, _, err := LoadCheckpoint(dir, ctx, dm.Model)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Histogram("meshio.checkpoint.save.ns").Count(); n != ranks {
		t.Errorf("save durations = %d, want %d", n, ranks)
	}
	if n := reg.Histogram("meshio.checkpoint.load.ns").Count(); n != ranks {
		t.Errorf("load durations = %d, want %d", n, ranks)
	}
	// One part file per rank in each direction, identical bytes.
	saved := reg.Histogram("meshio.checkpoint.save.bytes")
	loaded := reg.Histogram("meshio.checkpoint.load.bytes")
	if saved.Count() != ranks || loaded.Count() != ranks {
		t.Errorf("file-size observations save=%d load=%d, want %d each", saved.Count(), loaded.Count(), ranks)
	}
	if saved.Sum() == 0 || saved.Sum() != loaded.Sum() {
		t.Errorf("checkpoint bytes saved=%d loaded=%d, want equal and nonzero", saved.Sum(), loaded.Sum())
	}
}
