package partition

import (
	"slices"

	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// SyncShared pushes data from each owned part-boundary entity of the
// given dimensions to all its remote copies (collective). pack encodes
// the owner's payload; apply decodes it on each copy. Fields use this
// to keep shared nodal values and global DOF numbers consistent, the
// way PUMI's apf::synchronize works.
//
// The exchange runs on a compiled BoundaryPlan (plan.go) cached across
// rounds: once the plan is hot, a round performs no allocations and
// ships no per-entity headers. Any boundary mutation bumps the mesh
// topology epoch and the next call recompiles locally. The sanitizer
// observes this same path: its op hash folds the planned bytes and the
// mesh guards stay attached.
func SyncShared(dm *DMesh, dims []int, pack func(p *Part, e mesh.Ent, b *pcu.Buffer), apply func(p *Part, e mesh.Ent, r *pcu.Reader)) {
	defer dm.Ctx.Span("partition.sync").End()
	// The apply side writes owner data onto copies this part does not
	// own — the point of the protocol, so sanctioned for the sanitizer.
	defer dm.suspendGuards()()
	dm.execPlan(dm.plan(dimsKey{dimsMask(dims), dirSync}), dm.closureCodec(pack, apply))
}

// ReduceShared is the inverse pattern: every non-owner copy sends its
// payload for each shared entity to the owner, which combines them
// (e.g. accumulating element contributions to shared nodes in an FE
// assembly). apply runs on the owning part once per contributing copy,
// in ascending contributor-part order. Planned and cached like
// SyncShared.
func ReduceShared(dm *DMesh, dims []int, pack func(p *Part, e mesh.Ent, b *pcu.Buffer), apply func(p *Part, e mesh.Ent, r *pcu.Reader)) {
	defer dm.Ctx.Span("partition.reduce").End()
	dm.execPlan(dm.plan(dimsKey{dimsMask(dims), dirReduce}), dm.closureCodec(pack, apply))
}

// NeighborRanks returns the ranks this rank's parts communicate with,
// sorted — the message-routing neighborhood used for sparse exchanges.
// The result is cached against the parts' topology epochs: repeated
// calls between boundary mutations return the same backing slice with
// no allocations. Callers must treat it as read-only.
func NeighborRanks(dm *DMesh) []int {
	if dm.epochsMatch(dm.nbEpochs) {
		return dm.nbRanks
	}
	dm.nbRanks, dm.nbEpochs = dm.nbRanks[:0], dm.nbEpochs[:0]
	for _, part := range dm.Parts {
		dm.nbEpochs = append(dm.nbEpochs, part.M.TopoEpoch())
		for _, q := range part.M.NeighborParts(0) {
			dm.nbRanks = append(dm.nbRanks, dm.RankOf(q))
		}
	}
	slices.Sort(dm.nbRanks)
	dm.nbRanks = slices.Compact(dm.nbRanks)
	return dm.nbRanks
}

// epochsMatch reports whether the recorded epoch vector still matches
// every local part.
func (dm *DMesh) epochsMatch(epochs []uint64) bool {
	if len(epochs) != len(dm.Parts) {
		return false
	}
	for i, p := range dm.Parts {
		if epochs[i] != p.M.TopoEpoch() {
			return false
		}
	}
	return true
}
