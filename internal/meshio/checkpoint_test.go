package meshio

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// buildDistributed distributes a 4x2x2 box into nparts slabs by X and
// tags every element with a gid-derived weight, so checkpoint equality
// can be checked by content, not just by counts.
func buildDistributed(ctx *pcu.Ctx, k int) *partition.DMesh {
	model := gmi.Box(4, 1, 1)
	var serial *mesh.Mesh
	if ctx.Rank() == 0 {
		serial = meshgen.Box3D(model, 4, 2, 2)
	}
	dm := partition.Adopt(ctx, model.Model, 3, serial, k)
	nparts := dm.NParts()
	var assign map[mesh.Ent]int32
	if ctx.Rank() == 0 {
		assign = map[mesh.Ent]int32{}
		for el := range serial.Elements() {
			p := int32(serial.Centroid(el).X / 4.0 * float64(nparts))
			if int(p) >= nparts {
				p = int32(nparts - 1)
			}
			assign[el] = p
		}
	}
	if err := partition.TryMigrate(dm, partition.PlansFromAssignment(dm, assign)); err != nil {
		panic(err)
	}
	for _, p := range dm.Parts {
		m := p.M
		tag, err := m.Tags.Create("ckpt-w", ds.TagInt, 1)
		if err != nil {
			tag = m.Tags.Find("ckpt-w")
		}
		for el := range m.Elements() {
			m.Tags.SetInt(tag, el, p.Gid(el)%7)
		}
	}
	return dm
}

// partSignature summarizes one part's distributed state for equality
// checks: per-dim gid sets with owner and residence, plus element tags.
// The owner is derived from the residence; it is kept as a check that
// the links restored agree with it.
func partSignature(p *partition.Part, dim int) map[string]string {
	m := p.M
	sig := map[string]string{}
	for d := 0; d <= dim; d++ {
		for e := range m.Iter(d) {
			key := fmt.Sprintf("d%d-g%d", d, p.Gid(e))
			res := m.Residence(e).Values()
			sig[key] = fmt.Sprintf("own=%d res=%v", m.Owner(e), res)
		}
	}
	tag := m.Tags.Find("ckpt-w")
	if tag != nil {
		for e := range m.Elements() {
			v, _ := m.Tags.GetInt(tag, e)
			sig[fmt.Sprintf("w-g%d", p.Gid(e))] = fmt.Sprintf("%d", v)
		}
	}
	return sig
}

func TestCheckpointRoundTripSameWorld(t *testing.T) {
	dir := t.TempDir()
	cur := Cursor{Phase: "parma", Level: 2, Iter: 7}
	_, err := pcu.RunOpt(4, pcu.Options{Topo: hwtopo.Cluster(2, 2)}, func(ctx *pcu.Ctx) error {
		dm := buildDistributed(ctx, 1)
		if err := SaveCheckpoint(dir, dm, cur); err != nil {
			return err
		}
		dm2, cur2, err := LoadCheckpoint(dir, ctx, dm.Model)
		if err != nil {
			return err
		}
		if cur2 != cur {
			return fmt.Errorf("cursor %+v round-tripped as %+v", cur, cur2)
		}
		if dm2.K != dm.K || dm2.NParts() != dm.NParts() || dm2.Dim != dm.Dim {
			return fmt.Errorf("layout changed: k=%d nparts=%d dim=%d", dm2.K, dm2.NParts(), dm2.Dim)
		}
		for i := range dm.Parts {
			want := partSignature(dm.Parts[i], dm.Dim)
			got := partSignature(dm2.Parts[i], dm2.Dim)
			if len(want) != len(got) {
				return fmt.Errorf("part %d: %d state entries round-tripped as %d", i, len(want), len(got))
			}
			for k, v := range want {
				if got[k] != v {
					return fmt.Errorf("part %d: %s was %q, loaded %q", i, k, v, got[k])
				}
			}
		}
		return partition.Verify(dm2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRestartOnDifferentRankCount(t *testing.T) {
	dir := t.TempDir()
	var wantElems int64
	// Save from a 4-rank world (4 parts)...
	_, err := pcu.RunOn(4, hwtopo.Cluster(2, 2), func(ctx *pcu.Ctx) error {
		dm := buildDistributed(ctx, 1)
		var local int64
		for _, p := range dm.Parts {
			local += int64(p.M.Count(dm.Dim))
		}
		if n := pcu.SumInt64(ctx, local); ctx.Rank() == 0 {
			wantElems = n // one writer: the ranks share this variable
		}
		return SaveCheckpoint(dir, dm, Cursor{Phase: "parma", Level: 3, Iter: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	// ...restart on a 2-rank world: 2 parts per rank.
	_, err = pcu.RunOn(2, hwtopo.Cluster(2, 1), func(ctx *pcu.Ctx) error {
		model := gmi.Box(4, 1, 1)
		dm, cur, err := LoadCheckpoint(dir, ctx, model.Model)
		if err != nil {
			return err
		}
		if cur.Level != 3 || cur.Iter != 1 {
			return fmt.Errorf("cursor lost: %+v", cur)
		}
		if dm.K != 2 || dm.NParts() != 4 {
			return fmt.Errorf("want 4 parts as 2 per rank, got k=%d nparts=%d", dm.K, dm.NParts())
		}
		var local int64
		for _, p := range dm.Parts {
			local += int64(p.M.Count(dm.Dim))
		}
		if got := pcu.SumInt64(ctx, local); got != wantElems {
			return fmt.Errorf("global element count %d, want %d", got, wantElems)
		}
		return partition.Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
	// A rank count that does not divide the part count must fail
	// cleanly on every rank.
	err = pcu.Run(3, func(ctx *pcu.Ctx) error {
		model := gmi.Box(4, 1, 1)
		_, _, err := LoadCheckpoint(dir, ctx, model.Model)
		if err == nil || !strings.Contains(err.Error(), "divisible") {
			return fmt.Errorf("want divisibility error, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointSequenceAdvancesAndRetainsTwoEpochs(t *testing.T) {
	dir := t.TempDir()
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := buildDistributed(ctx, 1)
		for iter := 1; iter <= 3; iter++ {
			if err := SaveCheckpoint(dir, dm, Cursor{Iter: iter}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 3 || man.Cursor.Iter != 3 {
		t.Fatalf("third save: seq=%d cursor=%+v", man.Seq, man.Cursor)
	}
	prev, err := readManifestFile(dir, prevManifestName)
	if err != nil {
		t.Fatalf("previous epoch's manifest not retained: %v", err)
	}
	if prev.Seq != 2 || prev.Cursor.Iter != 2 {
		t.Fatalf("previous epoch should be generation 2: seq=%d cursor=%+v", prev.Seq, prev.Cursor)
	}
	// Exactly the last two generations' part files stay on disk.
	paths, _ := filepath.Glob(filepath.Join(dir, partFileGlobStar))
	if len(paths) != 4 {
		t.Fatalf("want 4 part files (2 generations x 2 parts), got %v", paths)
	}
	for _, p := range paths {
		base := filepath.Base(p)
		if !strings.HasPrefix(base, "g2-") && !strings.HasPrefix(base, "g3-") {
			t.Fatalf("stale generation file survived: %s", p)
		}
	}
}

func TestCheckpointFallsBackToPreviousEpoch(t *testing.T) {
	model := gmi.Box(4, 1, 1)
	// Two saves retain two epochs with distinct cursors; corrupting the
	// newest must make LoadCheckpoint come back with epoch 1's state.
	save := func(dir string) {
		t.Helper()
		err := pcu.Run(2, func(ctx *pcu.Ctx) error {
			dm := buildDistributed(ctx, 1)
			if err := SaveCheckpoint(dir, dm, Cursor{Phase: "old", Iter: 1}); err != nil {
				return err
			}
			return SaveCheckpoint(dir, dm, Cursor{Phase: "new", Iter: 2})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	loadCursor := func(dir string) (Cursor, error) {
		var cur Cursor
		err := pcu.Run(2, func(ctx *pcu.Ctx) error {
			dm, c, err := LoadCheckpoint(dir, ctx, model.Model)
			if err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				cur = c
			}
			return partition.Verify(dm)
		})
		return cur, err
	}

	t.Run("corrupt newest part file", func(t *testing.T) {
		dir := t.TempDir()
		save(dir)
		man, _ := readManifest(dir)
		path := filepath.Join(dir, man.Files[0].Name)
		data, _ := os.ReadFile(path)
		data[len(data)/2] ^= 0x40
		os.WriteFile(path, data, 0o644)
		cur, err := loadCursor(dir)
		if err != nil {
			t.Fatalf("load should fall back to the previous epoch: %v", err)
		}
		if cur.Phase != "old" || cur.Iter != 1 {
			t.Fatalf("want previous epoch's cursor, got %+v", cur)
		}
	})
	t.Run("corrupt newest manifest", func(t *testing.T) {
		dir := t.TempDir()
		save(dir)
		os.WriteFile(filepath.Join(dir, manifestName), []byte("{ not json"), 0o644)
		cur, err := loadCursor(dir)
		if err != nil {
			t.Fatalf("load should fall back to the previous epoch: %v", err)
		}
		if cur.Phase != "old" || cur.Iter != 1 {
			t.Fatalf("want previous epoch's cursor, got %+v", cur)
		}
	})
	t.Run("both epochs corrupt", func(t *testing.T) {
		dir := t.TempDir()
		save(dir)
		os.WriteFile(filepath.Join(dir, manifestName), []byte("{ not json"), 0o644)
		os.WriteFile(filepath.Join(dir, prevManifestName), []byte("{ also bad"), 0o644)
		_, err := loadCursor(dir)
		if err == nil || !strings.Contains(err.Error(), "previous epoch also unloadable") {
			t.Fatalf("want a both-epochs failure, got %v", err)
		}
	})
	t.Run("healthy newest epoch wins", func(t *testing.T) {
		dir := t.TempDir()
		save(dir)
		cur, err := loadCursor(dir)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Phase != "new" || cur.Iter != 2 {
			t.Fatalf("want newest epoch's cursor, got %+v", cur)
		}
	})
}

func TestCheckpointCorruptInputs(t *testing.T) {
	model := gmi.Box(4, 1, 1)
	load := func(dir string) error {
		return pcu.Run(1, func(ctx *pcu.Ctx) error {
			_, _, err := LoadCheckpoint(dir, ctx, model.Model)
			return err
		})
	}
	save := func(dir string) {
		t.Helper()
		err := pcu.Run(2, func(ctx *pcu.Ctx) error {
			return SaveCheckpoint(dir, buildDistributed(ctx, 1), Cursor{})
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	t.Run("missing manifest", func(t *testing.T) {
		if err := load(t.TempDir()); err == nil {
			t.Fatal("checkpoint-less directory loaded")
		}
	})
	t.Run("bad manifest magic", func(t *testing.T) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"magic":"junk"}`), 0o644)
		if err := load(dir); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("want bad-magic error, got %v", err)
		}
	})
	// A manifest with a valid magic but a part count below one, a file
	// entry outside [0, nparts) or a part file name that is not a plain
	// base name is refused before anything is read or allocated.
	for _, tc := range []struct {
		name string
		edit func(*checkpointManifest)
		want string
	}{
		{"negative part count", func(m *checkpointManifest) { m.NParts = -2 }, "-2 parts"},
		{"zero part count", func(m *checkpointManifest) { m.NParts = 0 }, "0 parts"},
		{"part outside nparts", func(m *checkpointManifest) { m.Files[1].Part = 2 }, "part 2 of 2"},
		{"negative part", func(m *checkpointManifest) { m.Files[0].Part = -1 }, "part -1 of 2"},
		{"name leaving dir", func(m *checkpointManifest) { m.Files[0].Name = "../" + m.Files[0].Name }, "part file"},
		{"absolute name", func(m *checkpointManifest) { m.Files[0].Name = "/etc/passwd" }, "part file"},
		{"empty name", func(m *checkpointManifest) { m.Files[0].Name = "" }, "part file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			save(dir)
			man, err := readManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(man)
			data, _ := json.Marshal(man)
			os.WriteFile(filepath.Join(dir, manifestName), data, 0o644)
			if err := load(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q error, got %v", tc.want, err)
			}
		})
	}
	t.Run("truncated part file", func(t *testing.T) {
		dir := t.TempDir()
		save(dir)
		man, _ := readManifest(dir)
		path := filepath.Join(dir, man.Files[0].Name)
		data, _ := os.ReadFile(path)
		os.WriteFile(path, data[:len(data)/2], 0o644)
		if err := load(dir); err == nil || !strings.Contains(err.Error(), "bytes") {
			t.Fatalf("want size-mismatch error, got %v", err)
		}
	})
	// Past the size and CRC gates, DecodePart itself must refuse a part
	// file cut inside an entity record or giving an entity a residence
	// without its own part.
	t.Run("short read and foreign residence", func(t *testing.T) {
		var data []byte
		if err := pcu.Run(2, func(ctx *pcu.Ctx) error {
			if dm := buildDistributed(ctx, 1); ctx.Rank() == 0 {
				var err error
				data, err = partition.EncodePart(dm.Parts[0])
				return err
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := partition.DecodePart(data, 0, 2, model.Model, 3); err != nil {
			t.Fatalf("intact part file: %v", err)
		}
		// A vertex record's residence: its length, then its parts, after
		// the record's type, gid and classification. The file is cut
		// inside the last vertex's; the first's is forged.
		verts := parseShipment(t, data, partHead, 3, true).recs[0]
		nres := verts[0].at + 1 + 8 + 5
		last := verts[len(verts)-1].at + 1 + 8 + 5
		for _, cut := range []int{last - 4, last, last + 2} {
			_, _, err := partition.DecodePart(data[:cut], 0, 2, model.Model, 3)
			if err == nil || !strings.Contains(err.Error(), "message underflow") {
				t.Errorf("cut at byte %d: want an underflow, got %v", cut, err)
			}
		}
		bad := append([]byte(nil), data...)
		le.PutUint32(bad[nres+4:], 1)
		_, _, err := partition.DecodePart(bad, 0, 2, model.Model, 3)
		if err == nil || !strings.Contains(err.Error(), "corrupt residence") {
			t.Errorf("part 1 first in the residence of an entity of part 0: want corrupt residence, got %v", err)
		}
	})
	t.Run("corrupt part file", func(t *testing.T) {
		dir := t.TempDir()
		save(dir)
		man, _ := readManifest(dir)
		path := filepath.Join(dir, man.Files[1].Name)
		data, _ := os.ReadFile(path)
		data[len(data)/2] ^= 0x40
		os.WriteFile(path, data, 0o644)
		if err := load(dir); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("want CRC error, got %v", err)
		}
	})
}

// TestEncodePartSizedOnce holds EncodePart to one buffer of the exact
// size, for a part with tags to write and one without.
func TestEncodePartSizedOnce(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		model := gmi.Box(4, 1, 1)
		var serial *mesh.Mesh
		var assign []int32
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 4, 2, 2)
			for el := range serial.Elements() {
				assign = append(assign, min(int32(serial.Centroid(el).X), 3))
			}
		}
		dm, err := partition.Distribute(ctx, model.Model, 3, serial, assign, 2)
		if err != nil {
			return err
		}
		for _, parts := range [][]*partition.Part{dm.Parts, buildDistributed(ctx, 2).Parts} {
			for _, p := range parts {
				b, err := partition.EncodePart(p)
				if err != nil {
					return err
				}
				if cap(b) != len(b) {
					return fmt.Errorf("part %d (%d tags): encoding of %d bytes in a buffer of %d", p.M.Part(), len(p.M.Tags.Tags()), len(b), cap(b))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRejectsUnstitchableResidence forges the residence of
// part 0's first shared vertex in a file whose size and CRC the manifest
// then records, so that only DecodePart stands between the forged parts
// and Assemble's stitch round: a part outside [0, nparts), in any
// position, or named twice must be an error, the same on every rank,
// not a panic.
func TestCheckpointRejectsUnstitchableResidence(t *testing.T) {
	model := gmi.Box(4, 1, 1)
	for _, tc := range []struct {
		name  string
		parts [2]int32 // the forged residence; the file's is [0 1]
	}{
		{"out of range high", [2]int32{0, 7}},
		{"equal to nparts", [2]int32{0, 2}},
		{"negative", [2]int32{-1, 0}},
		{"duplicate id", [2]int32{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := pcu.Run(2, func(ctx *pcu.Ctx) error {
				return SaveCheckpoint(dir, buildDistributed(ctx, 1), Cursor{})
			}); err != nil {
				t.Fatal(err)
			}
			man, err := readManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			f := &man.Files[0]
			path := filepath.Join(dir, f.Name)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			at := firstSharedVertex(t, data)
			if got := [2]int32{int32(le.Uint32(data[at:])), int32(le.Uint32(data[at+4:]))}; got != [2]int32{0, 1} {
				t.Fatalf("part 0's first shared vertex resides on %v, want [0 1]", got)
			}
			le.PutUint32(data[at:], uint32(tc.parts[0]))
			le.PutUint32(data[at+4:], uint32(tc.parts[1]))
			f.Size, f.CRC = int64(len(data)), crc32.ChecksumIEEE(data)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := commitManifest(dir, man); err != nil {
				t.Fatal(err)
			}
			var errs [2]error
			if err := pcu.Run(2, func(ctx *pcu.Ctx) error {
				_, _, errs[ctx.Rank()] = LoadCheckpoint(dir, ctx, model.Model)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "corrupt residence") {
					t.Errorf("rank %d: want a corrupt residence error, got %v", r, err)
				}
			}
			if errs[0] != nil && errs[1] != nil && errs[0].Error() != errs[1].Error() {
				t.Errorf("the ranks disagree: %q and %q", errs[0], errs[1])
			}
		})
	}
}

// firstSharedVertex returns the offset of the part ids in the first
// dim-0 record of a part file whose residence names two parts.
func firstSharedVertex(t *testing.T, data []byte) int {
	for _, rc := range parseShipment(t, data, partHead, 3, true).recs[0] {
		if len(rc.res) == 2 {
			return rc.at + 1 + 8 + 5 + 4 // type, gid, classification, residence length
		}
	}
	t.Fatal("no dim-0 record with a two-part residence")
	return 0
}
