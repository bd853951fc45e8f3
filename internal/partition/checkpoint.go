package partition

import (
	"fmt"
	"sort"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Checkpoint restore support: the meshio checkpoint format stores each
// part's mesh, global ids, ownership and residence sets on disk; this
// file exports just enough of the Part bookkeeping to rebuild a DMesh
// from that state, and Assemble to restitch the remote-copy links that
// are never stored (handles are process-local and meaningless across
// restarts).

// NewPart wraps a mesh in the distribution-layer bookkeeping (gid
// tables and lifecycle hooks). The checkpoint loader uses it on meshes
// whose entities already exist; ids are then restored with RestoreGid.
func NewPart(m *mesh.Mesh) *Part { return newPart(m) }

// RestoreGid assigns e the global id recorded in a checkpoint.
func (p *Part) RestoreGid(e mesh.Ent, gid int64) { p.setGid(e, gid) }

// FreshCounter returns the part-scoped id allocation cursor, saved in
// checkpoints so restored parts keep allocating unique ids.
func (p *Part) FreshCounter() int64 { return p.counter }

// RestoreFreshCounter resets the part-scoped id allocation cursor.
func (p *Part) RestoreFreshCounter(v int64) { p.counter = v }

// HasGhosts reports whether the part currently holds ghost copies.
// Checkpoints exclude ghost state; callers remove ghosts before saving.
func (p *Part) HasGhosts() bool { return p.nGhosts > 0 }

// Assemble builds a DMesh from restored parts and rebuilds the
// remote-copy links from each entity's residence set (res holds, per
// local part, the multi-part residence of every shared entity). It is
// collective; every rank must call it with the same layout. Entities
// are matched across parts by global id — a residence entry naming a
// part that holds no copy of the gid means the checkpoint is
// inconsistent, and every rank returns the same error.
func Assemble(ctx *pcu.Ctx, model *gmi.Model, dim, k int, parts []*Part, res []map[mesh.Ent][]int32) (*DMesh, error) {
	if len(parts) != k {
		panic(fmt.Sprintf("partition: Assemble with %d parts, want %d per rank", len(parts), k))
	}
	dm := &DMesh{Ctx: ctx, Model: model, Dim: dim, K: k, Parts: parts}
	ph := dm.beginPhase()
	for i, part := range parts {
		m := part.M
		self := m.Part()
		ents := make([]mesh.Ent, 0, len(res[i]))
		for e := range res[i] {
			ents = append(ents, e)
		}
		sort.Slice(ents, func(a, b int) bool { return ents[a].Less(ents[b]) })
		for _, e := range ents {
			for _, q := range res[i][e] {
				if q == self {
					continue
				}
				packStitch(ph.to(self, q), part, e)
			}
		}
	}
	// Restitching records remote links on entities owned elsewhere;
	// sanctioned for the sanitizer. A residence entry naming a part that
	// holds no copy fails the stage.
	resume := dm.suspendGuards()
	localErr := catchStage(ph.applyStitches)
	resume()
	if causes := GatherCauses(ctx, localErr); causes != "" {
		return nil, fmt.Errorf("partition: assembling checkpoint: %s", causes)
	}
	return dm, nil
}
