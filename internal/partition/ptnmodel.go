package partition

import (
	"fmt"
	"slices"
	"strings"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// PtnEnt is a partition model entity P^d_i: the group of mesh entities
// sharing one residence part set. Its dimension follows the paper's
// structure for a mesh of dimension D: interior entities (one residence
// part) classify on a partition entity of dimension D; entities shared
// by n parts classify on dimension max(0, D-(n-1)) (e.g. in Fig 3/4 of
// the paper, the 2D mesh vertex on three parts classifies on a
// partition vertex, those on two parts on partition edges).
type PtnEnt struct {
	ID        int
	Dim       int
	Residence ds.IntSet
	// Count is the number of distinct mesh entities classified on this
	// partition entity (each counted once globally).
	Count int64
}

// Owner is the least part of pe's residence, as for each entity on it.
func (pe *PtnEnt) Owner() int32 { return pe.Residence.Min() }

// PtnModel is the partition model of a distributed mesh.
type PtnModel struct {
	Ents []*PtnEnt
	// byKey maps a residence set key to its partition entity.
	byKey map[string]*PtnEnt
	dim   int
}

// Get returns the partition entity for a residence set, or nil.
func (pm *PtnModel) Get(res ds.IntSet) *PtnEnt { return pm.byKey[res.Key()] }

// Classify returns the partition model entity a mesh entity of the
// given part classifies on (its partition classification).
func (pm *PtnModel) Classify(m *mesh.Mesh, e mesh.Ent) *PtnEnt {
	return pm.byKey[m.Residence(e).Key()]
}

func (pm *PtnModel) String() string {
	var b strings.Builder
	for _, pe := range pm.Ents {
		fmt.Fprintf(&b, "P%d_%d res=%v owner=%d count=%d\n",
			pe.Dim, pe.ID, pe.Residence.Values(), pe.Owner(), pe.Count)
	}
	return b.String()
}

// BuildPtnModel constructs the partition model of the distributed mesh
// (collective; every rank receives the same model). Counts tally each
// mesh entity once, at its owner. An entity off the part boundary (and
// no ghost) resides on its own part alone, so a part is counted by its
// boundary walk and its live tallies.
func BuildPtnModel(dm *DMesh) *PtnModel {
	local := map[string]*PtnEnt{}
	var res []int32
	for _, part := range dm.Parts {
		m := part.M
		for d := 0; d <= dm.Dim; d++ {
			interior := part.Count(d)
			for e := range m.PartBoundary(d) {
				interior--
				if m.IsOwned(e) {
					res = m.AppendResidence(e, res[:0])
					addClass(local, ds.NewIntSet(res...), 1)
				}
			}
			addClass(local, ds.NewIntSet(m.Part()), interior)
		}
	}
	// Serialize local classes and gather them everywhere.
	var b pcu.Buffer
	keys := sortedKeys(local)
	b.Int32(int32(len(keys)))
	for _, k := range keys {
		b.Int32s(local[k].Residence.Values())
		b.Int64(local[k].Count)
	}
	merged := map[string]*PtnEnt{}
	for _, blob := range pcu.Allgather(dm.Ctx, b.Raw()) {
		r := pcu.NewReader(blob)
		for n := r.Int32(); n > 0; n-- {
			res := ds.NewIntSet(r.Int32s()...)
			addClass(merged, res, r.Int64())
		}
		r.Done()
	}
	pm := &PtnModel{byKey: merged, dim: dm.Dim}
	for _, k := range sortedKeys(merged) {
		pe := merged[k]
		pe.ID = len(pm.Ents)
		pe.Dim = max(0, dm.Dim-(pe.Residence.Len()-1))
		pm.Ents = append(pm.Ents, pe)
	}
	return pm
}

func sortedKeys(classes map[string]*PtnEnt) []string {
	keys := make([]string, 0, len(classes))
	for k := range classes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// addClass adds n entities to the class of residence res.
func addClass(classes map[string]*PtnEnt, res ds.IntSet, n int64) {
	if pe := classes[res.Key()]; pe != nil {
		pe.Count += n
	} else if n > 0 {
		classes[res.Key()] = &PtnEnt{Residence: res, Count: n}
	}
}
