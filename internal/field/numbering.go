package field

import (
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Numbering assigns consecutive global degree-of-freedom ids to the
// nodes of a field across a distributed mesh: each owned node gets a
// unique id, copies of shared nodes receive their owner's id. This is
// the global numbering an FE solver needs to assemble a distributed
// linear system.
type Numbering struct {
	// IDs maps node entities to global ids, per local part index.
	IDs []map[mesh.Ent]int64
	// Total is the global DOF count.
	Total int64
	// OwnedBase is this rank's first id.
	OwnedBase int64
}

// Number globally numbers the field's nodes (collective). Nodes are
// numbered rank by rank in entity-iteration order.
func Number(dm *partition.DMesh, shape Shape) *Numbering {
	num := &Numbering{IDs: make([]map[mesh.Ent]int64, len(dm.Parts))}
	// Number owned nodes from 0 on this rank, then shift by the ranks
	// before it.
	var owned int64
	for i, part := range dm.Parts {
		num.IDs[i] = map[mesh.Ent]int64{}
		m := part.M
		for _, d := range shape.NodeDims() {
			for e := range m.Iter(d) {
				if !m.IsGhost(e) && m.IsOwned(e) {
					num.IDs[i][e] = owned
					owned++
				}
			}
		}
	}
	num.OwnedBase = pcu.ExscanInt64(dm.Ctx, owned)
	num.Total = pcu.SumInt64(dm.Ctx, owned)
	for _, ids := range num.IDs {
		for e := range ids {
			ids[e] += num.OwnedBase
		}
	}
	// Distribute owner ids to copies.
	idsOf := func(p *partition.Part) map[mesh.Ent]int64 {
		for i, part := range dm.Parts {
			if part == p {
				return num.IDs[i]
			}
		}
		return nil
	}
	partition.SyncShared(dm, shape.NodeDims(),
		func(p *partition.Part, e mesh.Ent, b *pcu.Buffer) {
			b.Int64(idsOf(p)[e])
		},
		func(p *partition.Part, e mesh.Ent, r *pcu.Reader) {
			idsOf(p)[e] = r.Int64()
		})
	return num
}
