package partition

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Mesh and part files. A part goes to disk the way it goes to another
// part, as one shipment (migrate.go) of the whole part, and loading it
// is receiving that shipment into a fresh part:
//
//   - a checkpoint's part file: partMagic, the part id, the fresh-id
//     counter, the number of shared entities and of the part ids in
//     their residences (which size the load's residence list), then the
//     shipment, each record's mid the entity's residence;
//   - a serial mesh file: meshMagic, the dimension, then the shipment
//     with no mid, each global id its record's position in its level.
//
// Remote-copy handles are process-local and never stored: Assemble
// restitches the links from the residences by global id.
const (
	meshMagic = "PUMIGO04"
	partMagic = "PUMICK04"
)

// readMagic consumes data's magic, which must be magic.
func readMagic(data []byte, magic string) *pcu.Reader {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		localFail("partition: bad magic %q, want %q", data[:min(len(data), len(magic))], magic)
	}
	return pcu.NewReader(data[len(magic):])
}

// EncodeMesh returns the serial file of m, in one buffer of its size. A
// tag directory the format cannot carry is an error.
func EncodeMesh(m *mesh.Mesh) ([]byte, error) {
	movable, err := movableTags(m)
	if err != nil {
		return nil, err
	}
	p := &Part{M: m} // its gids, positions in iteration order, and nothing else
	p.assignSerialGids()
	size := len(meshMagic) + 4 + headerBytes(movable, m.Dim())
	for d := 0; d <= m.Dim(); d++ {
		for e := range m.Iter(d) {
			size += recordSize(m, movable, e, 0)
		}
	}
	b := pcu.NewBuffer(make([]byte, 0, size))
	b.Int64(int64(binary.LittleEndian.Uint64([]byte(meshMagic))))
	b.Int32(int32(m.Dim()))
	packPart(b, p, movable, nil)
	return b.Raw(), nil
}

// DecodeMesh reads a serial mesh file against model (may be nil). The
// mesh comes back with no partition hooks. Any input that is not such
// a file is an error.
func DecodeMesh(data []byte, model *gmi.Model) (*mesh.Mesh, error) {
	var out *mesh.Mesh
	err := catchStage(func() {
		r := readMagic(data, meshMagic)
		dim := r.Int32()
		if dim < 1 || dim > 3 {
			localFail("partition: bad dimension %d", dim)
		}
		m := mesh.New(model, int(dim))
		p := &Part{M: m}
		unpackRecords(p, r, int(dim), landing{}, p.reserveLoad, nil, func(e mesh.Ent, created bool) { p.loaded(e, created) })
		out = m
	})
	return out, err
}

// loaded is a load's landed: every record is a new entity, and one
// CheckEntity passes.
func (p *Part) loaded(e mesh.Ent, created bool) {
	if !created {
		localFail("partition: gid %d of dimension %d is listed twice", p.Gid(e), e.Dim())
	}
	if err := p.M.CheckEntity(e); err != nil {
		panic(migrateLocalError{err})
	}
}

// EncodePart returns p's checkpoint part file, in one buffer of its
// size. A part holding ghosts, or tags the format cannot carry, is an
// error.
func EncodePart(p *Part) ([]byte, error) {
	m := p.M
	if p.nGhosts > 0 {
		return nil, fmt.Errorf("part %d holds ghosts; remove ghosts before checkpointing", m.Part())
	}
	movable, err := movableTags(m)
	if err != nil {
		return nil, err
	}
	size, shared, cells := len(partMagic)+4+8+4+4+headerBytes(movable, m.Dim()), 0, 0
	for d := 0; d <= m.Dim(); d++ {
		for e := range m.Iter(d) {
			n := 1 + m.NRemotes(e)
			if n > 1 {
				shared++
				cells += n
			}
			size += recordSize(m, movable, e, 4+4*n)
		}
	}
	b := pcu.NewBuffer(make([]byte, 0, size))
	b.Int64(int64(binary.LittleEndian.Uint64([]byte(partMagic))))
	b.Int32(m.Part())
	b.Int64(p.counter)
	b.Int32(int32(shared))
	b.Int32(int32(cells))
	var res []int32 // residence scratch
	packPart(b, p, movable, func(e mesh.Ent) {
		res = m.AppendResidence(e, res[:0])
		b.Int32s(res)
	})
	return b.Raw(), nil
}

// Residence is one shared entity's multi-part residence set, ascending,
// as a checkpoint stores it.
type Residence struct {
	E     mesh.Ent
	Parts []int32
}

// DecodePart rebuilds part pid of an nparts checkpoint of dimension dim
// from its part file, with the residence of each shared entity, in file
// order, for Assemble. Any input that is not such a file is an error.
func DecodePart(data []byte, pid int32, nparts int, model *gmi.Model, dim int) (*Part, []Residence, error) {
	if dim < 1 || dim > 3 {
		return nil, nil, fmt.Errorf("partition: part %d: bad dimension %d", pid, dim)
	}
	m := mesh.New(model, dim)
	m.SetPart(pid)
	p := &Part{M: m} // attached once loaded, so no record is first given a fresh gid
	var res []Residence
	var counter int64
	err := catchStage(func() {
		r := readMagic(data, partMagic)
		stored := r.Int32()
		counter = r.Int64()
		shared, cells := int(r.Int32()), int(r.Int32())
		if stored != pid {
			localFail("partition: the file for part %d stores part %d", pid, stored)
		}
		// A shared entity's residence holds two part ids or more.
		if shared < 0 || cells < 2*shared || cells > r.Remaining()/4 {
			localFail("partition: the header's %d shared entities of %d residence cells do not fit %d bytes", shared, cells, r.Remaining())
		}
		res = make([]Residence, 0, shared)
		arena := make([]int32, 0, cells) // every kept residence is a run of it
		var run []int32                  // the record's residence
		var minted int64                 // the most this part's fresh ids have counted
		unpackRecords(p, r, dim, landing{}, p.reserveLoad,
			func() {
				// Assemble stitches a residence strictly ascending, inside
				// [0, nparts), with this part among it.
				run = r.AppendInt32s(run[:0])
				ok := len(run) > 0
				for i, q := range run {
					ok = ok && q >= 0 && int(q) < nparts && (i == 0 || run[i-1] < q)
				}
				if _, own := slices.BinarySearch(run, pid); !ok || !own {
					localFail("partition: corrupt residence %v in %d parts", run, nparts)
				}
			},
			func(e mesh.Ent, created bool) {
				p.loaded(e, created)
				if g := p.Gid(e); g>>freshGidBase == int64(pid)+1 {
					minted = max(minted, g&(1<<freshGidBase-1))
				}
				if len(run) == 1 {
					return // on this part alone: interior
				}
				if len(res) == cap(res) || len(run) > cap(arena)-len(arena) {
					localFail("partition: more shared entities than the header's %d, %d cells", shared, cells)
				}
				arena = append(arena, run...)
				res = append(res, Residence{E: e, Parts: arena[len(arena)-len(run) : len(arena) : len(arena)]})
			})
		if len(res) != shared || len(arena) != cells {
			localFail("partition: %d shared entities of %d residence cells, the header says %d of %d", len(res), len(arena), shared, cells)
		}
		if counter < minted { // the next fresh id would repeat one
			localFail("partition: fresh-id counter %d below the %d this part has minted", counter, minted)
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("partition: part %d: %w", pid, err)
	}
	// The shared entities are the boundary table, sized once; Assemble's
	// stitch round sizes the links.
	var n [mesh.TypeCount]int
	for _, r := range res {
		n[r.E.T]++
	}
	for t, k := range n {
		m.ReserveBoundary(mesh.Type(t), k, 0)
	}
	p.attach()
	p.counter = counter
	return p, res, nil
}

// Assemble builds a DMesh from restored parts and rebuilds the
// remote-copy links from each entity's residence set (res holds, per
// local part, the multi-part residence of every shared entity in
// Ent.Less order, which is the order the part's links are stitched
// in). It is collective; every rank must call it with the same layout.
// Entities are matched across parts by global id — a residence entry
// naming a part that holds no copy of the gid means the checkpoint is
// inconsistent, and every rank returns the same error.
func Assemble(ctx *pcu.Ctx, model *gmi.Model, dim, k int, parts []*Part, res [][]Residence) (*DMesh, error) {
	if len(parts) != k {
		panic(fmt.Sprintf("partition: Assemble with %d parts, want %d per rank", len(parts), k))
	}
	dm := &DMesh{Ctx: ctx, Model: model, Dim: dim, K: k, Parts: parts}
	ph := dm.beginPhase()
	for _, packing := range [2]bool{false, true} {
		for i, part := range parts {
			for _, r := range res[i] {
				ph.stitch(part, r.E, r.Parts, packing)
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
