package meshio

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// Distributed checkpoint format. A checkpoint is a directory holding
// one binary file per part (mesh topology + tags via the meshio format,
// plus global ids, ownership and residence sets) and a JSON manifest
// naming the files with sizes and CRCs plus a restart cursor. The
// manifest is committed last by an atomic rename, so a crash mid-save
// leaves the previous checkpoint loadable; each save uses a fresh
// sequence number as its file prefix so it never overwrites the
// checkpoint it may be replacing. Remote-copy handles are process-local
// and are not stored: LoadCheckpoint rebuilds the links from residence
// sets by global id (partition.Assemble), which also lets a checkpoint
// saved on one world restart on a different rank count, as long as the
// rank count divides the part count.

const (
	checkpointMagic  = "pumi-checkpoint-v1"
	partMagic        = "PUMICK01"
	manifestName     = "checkpoint.json"
	prevManifestName = "checkpoint.prev.json"
	partFilePattern  = "g%d-part-%04d.pumip"
	partFileGlobStar = "g*-part-*.pumip"
)

// Cursor records where in an interrupted computation the checkpoint was
// taken, so a restart can resume instead of starting over.
type Cursor struct {
	Phase string `json:"phase"`
	Level int    `json:"level"`
	Iter  int    `json:"iter"`
}

// CheckpointFile describes one committed part file.
type CheckpointFile struct {
	Name string `json:"name"`
	Part int32  `json:"part"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32"`
}

type checkpointManifest struct {
	Magic  string           `json:"magic"`
	Seq    int64            `json:"seq"`
	NParts int              `json:"nparts"`
	Dim    int              `json:"dim"`
	Cursor Cursor           `json:"cursor"`
	Files  []CheckpointFile `json:"files"`
}

// CheckpointExists reports whether dir holds a committed checkpoint.
func CheckpointExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

func readManifest(dir string) (*checkpointManifest, error) {
	return readManifestFile(dir, manifestName)
}

func readManifestFile(dir, name string) (*checkpointManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	var man checkpointManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("meshio: corrupt checkpoint manifest: %w", err)
	}
	if man.Magic != checkpointMagic {
		return nil, fmt.Errorf("meshio: bad checkpoint magic %q", man.Magic)
	}
	return &man, nil
}

// encodePart serializes one part: the mesh as a length-prefixed meshio
// blob, then the gid / owner / residence record of every entity in
// iteration order — the same order the mesh blob stores them, so load
// realigns by position.
func encodePart(p *partition.Part) []byte {
	m := p.M
	b := append([]byte(nil), partMagic...)
	blobLen := len(b)
	b = appendMesh(le.AppendUint64(b, 0), m)
	le.PutUint64(b[blobLen:], uint64(len(b)-blobLen-8))
	b = le.AppendUint32(b, uint32(m.Part()))
	b = le.AppendUint64(b, uint64(p.FreshCounter()))
	var res []int32 // residence scratch
	for d := 0; d <= m.Dim(); d++ {
		b = le.AppendUint32(b, uint32(m.Count(d)))
		for e := range m.Iter(d) {
			b = le.AppendUint64(b, uint64(p.Gid(e)))
			b = le.AppendUint32(b, uint32(m.Owner(e)))
			res = m.AppendResidence(e, res[:0])
			b = le.AppendUint32(b, uint32(len(res)))
			for _, q := range res {
				b = le.AppendUint32(b, uint32(q))
			}
		}
	}
	return b
}

// decodePart rebuilds one part from its file contents, returning the
// multi-part residence sets for partition.Assemble.
func decodePart(data []byte, pid int32, model *gmi.Model, dim int) (*partition.Part, map[mesh.Ent][]int32, error) {
	truncated := fmt.Errorf("meshio: part %d: truncated part file", pid)
	d := &dec{b: data}
	if head := d.bytes(len(partMagic)); string(head) != partMagic {
		return nil, nil, fmt.Errorf("meshio: part %d: bad part-file magic %q", pid, head)
	}
	blobLen := d.u64()
	if d.err != nil {
		return nil, nil, truncated
	}
	if blobLen > uint64(len(d.b)) {
		return nil, nil, fmt.Errorf("meshio: part %d: mesh blob of %d bytes but only %d remain", pid, blobLen, len(d.b))
	}
	m, err := decodeMesh(d.bytes(int(blobLen)), model)
	if err != nil {
		return nil, nil, fmt.Errorf("meshio: part %d: %w", pid, err)
	}
	if m.Dim() != dim {
		return nil, nil, fmt.Errorf("meshio: part %d has dimension %d, manifest says %d", pid, m.Dim(), dim)
	}
	storedPid := int32(d.u32())
	counter := int64(d.u64())
	if d.err != nil {
		return nil, nil, truncated
	}
	if storedPid != pid {
		return nil, nil, fmt.Errorf("meshio: file for part %d stores part id %d", pid, storedPid)
	}
	m.SetPart(pid)
	p := partition.NewPart(m)
	p.RestoreFreshCounter(counter)
	res := map[mesh.Ent][]int32{}
	// Every kept residence list is a run of one arena, sized to all the
	// part ids the rest of the file could hold so it never regrows under
	// the runs handed out.
	arena := make([]int32, 0, len(d.b)/4)
	for dd := 0; dd <= dim; dd++ {
		n := d.u32()
		if d.err != nil {
			return nil, nil, truncated
		}
		if int(n) != m.Count(dd) {
			return nil, nil, fmt.Errorf("meshio: part %d: %d dim-%d records for %d entities", pid, n, dd, m.Count(dd))
		}
		for e := range m.Iter(dd) {
			gid := int64(d.u64())
			owner := int32(d.u32())
			nres := d.u32()
			if d.err != nil {
				return nil, nil, truncated
			}
			if nres == 0 || uint64(nres)*4 > uint64(len(d.b)) {
				return nil, nil, fmt.Errorf("meshio: part %d: corrupt residence count %d", pid, nres)
			}
			start := len(arena)
			for range nres {
				arena = append(arena, int32(d.u32()))
			}
			vals := arena[start:len(arena):len(arena)]
			if !slices.Contains(vals, owner) {
				return nil, nil, fmt.Errorf("meshio: part %d: corrupt owner %d of gid %d, residence %v", pid, owner, gid, vals)
			}
			p.RestoreGid(e, gid)
			m.SetOwner(e, owner)
			if nres > 1 {
				res[e] = vals
			} else {
				arena = arena[:start]
			}
		}
	}
	if len(d.b) != 0 {
		return nil, nil, fmt.Errorf("meshio: part %d: %d trailing bytes", pid, len(d.b))
	}
	return p, res, nil
}

type saveReport struct {
	files []CheckpointFile
	err   string
}

// SaveCheckpoint writes a restartable snapshot of dm into dir. It is
// collective; every rank writes its own parts and rank 0 commits the
// manifest last, atomically, after all ranks report success. The cursor
// is stored verbatim for the restarting computation. Ghost copies are
// not checkpointable; remove them first.
func SaveCheckpoint(dir string, dm *partition.DMesh, cur Cursor) error {
	ctx := dm.Ctx
	defer ctx.Span("meshio.checkpoint.save").End()
	var seq int64 = 1
	if ctx.Rank() == 0 {
		if man, err := readManifest(dir); err == nil {
			seq = man.Seq + 1
		}
	}
	seq = pcu.Bcast(ctx, 0, seq)

	var localErr error
	var metas []CheckpointFile
	if err := os.MkdirAll(dir, 0o755); err != nil {
		localErr = err
	}
	for _, p := range dm.Parts {
		if localErr != nil {
			break
		}
		if p.HasGhosts() {
			localErr = fmt.Errorf("part %d holds ghosts; remove ghosts before checkpointing", p.M.Part())
			break
		}
		data := encodePart(p)
		ctx.Metrics().Histogram("meshio.checkpoint.save.bytes").Observe(ctx.Rank(), int64(len(data)))
		name := fmt.Sprintf(partFilePattern, seq, p.M.Part())
		path := filepath.Join(dir, name)
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			localErr = err
			break
		}
		if err := os.Rename(tmp, path); err != nil {
			localErr = err
			break
		}
		metas = append(metas, CheckpointFile{
			Name: name,
			Part: p.M.Part(),
			Size: int64(len(data)),
			CRC:  crc32.ChecksumIEEE(data),
		})
	}
	errStr := ""
	if localErr != nil {
		errStr = localErr.Error()
	}
	reports := pcu.Allgather(ctx, saveReport{files: metas, err: errStr})

	commitErr := ""
	if ctx.Rank() == 0 {
		var causes []string
		var files []CheckpointFile
		for r, rep := range reports {
			if rep.err != "" {
				causes = append(causes, fmt.Sprintf("rank %d: %s", r, rep.err))
			}
			files = append(files, rep.files...)
		}
		switch {
		case len(causes) > 0:
			commitErr = strings.Join(causes, "; ")
		default:
			sort.Slice(files, func(i, j int) bool { return files[i].Part < files[j].Part })
			man := checkpointManifest{
				Magic:  checkpointMagic,
				Seq:    seq,
				NParts: dm.NParts(),
				Dim:    dm.Dim,
				Cursor: cur,
				Files:  files,
			}
			if err := retireManifest(dir); err != nil {
				commitErr = err.Error()
			} else if err := commitManifest(dir, &man); err != nil {
				commitErr = err.Error()
			} else {
				cleanupStale(dir, &man)
			}
		}
	}
	commitErr = pcu.Bcast(ctx, 0, commitErr)
	if commitErr != "" {
		return fmt.Errorf("meshio: saving checkpoint: %s", commitErr)
	}
	return nil
}

func commitManifest(dir string, man *checkpointManifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, manifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// retireManifest moves the currently committed manifest into the
// previous-epoch slot before a new commit replaces it, so the last two
// checkpoint generations stay loadable (LoadCheckpoint falls back to
// the previous epoch when the newest one fails validation). Each step
// is an atomic rename: a crash anywhere leaves both slots readable.
func retireManifest(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil // first checkpoint in this directory
	}
	if err != nil {
		return err
	}
	path := filepath.Join(dir, prevManifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// cleanupStale removes part files referenced by neither the committed
// manifest nor the retained previous epoch's, so exactly the last two
// generations stay on disk. Best effort: a leftover file can never be
// confused for current state, since loads go through a manifest.
func cleanupStale(dir string, man *checkpointManifest) {
	keep := map[string]bool{}
	for _, f := range man.Files {
		keep[f.Name] = true
	}
	if prev, err := readManifestFile(dir, prevManifestName); err == nil {
		for _, f := range prev.Files {
			keep[f.Name] = true
		}
	}
	paths, _ := filepath.Glob(filepath.Join(dir, partFileGlobStar))
	for _, p := range paths {
		if !keep[filepath.Base(p)] {
			os.Remove(p)
		}
	}
}

// LoadCheckpoint rebuilds a DMesh from the checkpoint in dir on the
// calling world, which may have a different rank count than the saver
// as long as it divides the part count. It is collective and returns
// the same result on every rank: the restored mesh passes
// partition.Verify, and the cursor tells the caller where to resume.
//
// When the newest epoch fails validation — an unreadable manifest, a
// missing or damaged part file — LoadCheckpoint falls back to the
// retained previous epoch (SaveCheckpoint keeps the last two
// generations). The fallback decision is collective, so every rank
// loads the same epoch.
func LoadCheckpoint(dir string, ctx *pcu.Ctx, model *gmi.Model) (*partition.DMesh, Cursor, error) {
	defer ctx.Span("meshio.checkpoint.load").End()
	dm, cur, err := loadEpoch(dir, manifestName, ctx, model)
	if err == nil {
		return dm, cur, nil
	}
	// The newest epoch is unreadable. The first-attempt error is already
	// collective (partition.GatherCauses), as is the fallback decision
	// below, so every rank takes the same path.
	hasPrev := false
	if ctx.Rank() == 0 {
		_, statErr := os.Stat(filepath.Join(dir, prevManifestName))
		hasPrev = statErr == nil
	}
	if !pcu.Bcast(ctx, 0, hasPrev) {
		return nil, Cursor{}, err
	}
	dm, cur, perr := loadEpoch(dir, prevManifestName, ctx, model)
	if perr != nil {
		return nil, Cursor{}, fmt.Errorf("meshio: newest checkpoint epoch unloadable (%v); previous epoch also unloadable: %w", err, perr)
	}
	return dm, cur, nil
}

// loadEpoch loads the checkpoint generation committed under the given
// manifest file name. Collective; failures are reconciled so every rank
// returns the same error.
func loadEpoch(dir, manifest string, ctx *pcu.Ctx, model *gmi.Model) (*partition.DMesh, Cursor, error) {
	man, localErr := readManifestFile(dir, manifest)
	if causes := partition.GatherCauses(ctx, localErr); causes != "" {
		return nil, Cursor{}, fmt.Errorf("meshio: loading checkpoint manifest: %s", causes)
	}
	if man.NParts%ctx.Size() != 0 {
		return nil, Cursor{}, fmt.Errorf("meshio: checkpoint has %d parts, not divisible across %d ranks",
			man.NParts, ctx.Size())
	}
	k := man.NParts / ctx.Size()
	byPart := map[int32]CheckpointFile{}
	for _, f := range man.Files {
		byPart[f.Part] = f
	}
	parts := make([]*partition.Part, 0, k)
	res := make([]map[mesh.Ent][]int32, 0, k)
	for i := 0; i < k && localErr == nil; i++ {
		pid := int32(ctx.Rank()*k + i)
		f, ok := byPart[pid]
		if !ok {
			localErr = fmt.Errorf("meshio: checkpoint manifest lists no file for part %d", pid)
			break
		}
		data, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			localErr = err
			break
		}
		if int64(len(data)) != f.Size {
			localErr = fmt.Errorf("meshio: %s is %d bytes, manifest says %d", f.Name, len(data), f.Size)
			break
		}
		if crc := crc32.ChecksumIEEE(data); crc != f.CRC {
			localErr = fmt.Errorf("meshio: %s fails its CRC check (%08x != %08x)", f.Name, crc, f.CRC)
			break
		}
		ctx.Metrics().Histogram("meshio.checkpoint.load.bytes").Observe(ctx.Rank(), int64(len(data)))
		p, r, err := decodePart(data, pid, model, man.Dim)
		if err != nil {
			localErr = err
			break
		}
		parts = append(parts, p)
		res = append(res, r)
	}
	if causes := partition.GatherCauses(ctx, localErr); causes != "" {
		return nil, Cursor{}, fmt.Errorf("meshio: loading checkpoint parts: %s", causes)
	}
	dm, err := partition.Assemble(ctx, model, man.Dim, k, parts, res)
	if err != nil {
		return nil, Cursor{}, err
	}
	return dm, man.Cursor, nil
}
