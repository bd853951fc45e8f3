package meshio

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// FuzzReadAssignment feeds arbitrary bytes to the reader of the
// partitioner's on-disk output (written by pumi-part, read by pumi-info
// and parma-improve). It must never panic, and whatever it accepts must
// be exactly what WriteAssignment writes for the ids it returned: one
// canonical file per assignment. The seed corpus under testdata/fuzz
// holds a valid file, a truncated one, a bad magic, a forged count, a
// negative id and every crasher found since.
func FuzzReadAssignment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := ReadAssignment(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteAssignment(&again, parts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones (%d ids)", len(data), again.Len(), len(parts))
		}
	})
}

// FuzzRead feeds arbitrary bytes to the mesh file reader, tag directory
// included — the format pumi-info, parma-improve and pumi-part load from
// outside. It must never panic; a mesh it accepts must survive
// CheckConsistency without a panic, and one Write of it must be a fixed
// point: reading those bytes back and writing again gives the same
// bytes. The seeds are a valid box, a box with every tag kind, a
// truncated box, junk, nothing, and the serial forgeries of
// TestDecodeRejectsForgedInputs; crashers land under
// testdata/fuzz/FuzzRead.
func FuzzRead(f *testing.F) {
	model := gmi.Box(1, 1, 1)
	good, forged := forgedSerial(f)
	var tagged bytes.Buffer
	if err := Write(&tagged, taggedBox(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(tagged.Bytes())
	f.Add(good[:len(good)/2])
	f.Add([]byte("JUNKJUNK"))
	f.Add([]byte{})
	for _, name := range slices.Sorted(maps.Keys(forged)) {
		f.Add(forged[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data), model.Model)
		if err != nil {
			return
		}
		_ = m.CheckConsistency() // a hostile but well-formed file may fail it; it may not panic
		var once, twice bytes.Buffer
		if err := Write(&once, m); err != nil {
			t.Fatalf("accepted %d bytes whose mesh does not write: %v", len(data), err)
		}
		m2, err := Read(bytes.NewReader(once.Bytes()), model.Model)
		if err != nil {
			t.Fatalf("accepted %d bytes whose re-encoding is rejected: %v", len(data), err)
		}
		if err := Write(&twice, m2); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("accepted %d bytes; written, read and written again, %d bytes became %d different ones (%v)", len(data), once.Len(), twice.Len(), err)
		}
	})
}

// FuzzDecodePart feeds arbitrary bytes to the two decoders of a
// checkpoint directory LoadCheckpoint reads from disk:
// partition.DecodePart, the reader of one part file, and
// readManifestFile, the reader of the JSON manifest. Neither may panic;
// a part file DecodePart accepts must
// survive CheckConsistency without a panic and hand back residence sets
// Assemble can stitch — two or more parts each, strictly ascending,
// inside [0, 2), part 0 among them: [0 1] alone — and a manifest
// readManifestFile accepts carries the checkpoint magic. The seeds are
// the manifest and the two part files of one valid checkpoint, then the
// part-file forgeries of TestDecodeRejectsForgedInputs; crashers land
// under testdata/fuzz/FuzzDecodePart.
func FuzzDecodePart(f *testing.F) {
	model := gmi.Box(4, 1, 1)
	dir := f.TempDir()
	if err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		return SaveCheckpoint(dir, buildDistributed(ctx, 1), Cursor{Phase: "fuzz"})
	}); err != nil {
		f.Fatal(err)
	}
	man, err := readManifest(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{manifestName, man.Files[0].Name, man.Files[1].Name} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	_, forged := forgedPart(f)
	for _, name := range slices.Sorted(maps.Keys(forged)) {
		f.Add(forged[name])
	}
	scratch := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, res, err := partition.DecodePart(data, 0, 2, model.Model, 3); err == nil {
			_ = p.M.CheckConsistency() // a hostile but well-formed file may fail it; it may not panic
			for i, r := range res {
				if !slices.Equal(r.Parts, []int32{0, 1}) { // the one such residence part 0 of 2 can share
					t.Fatalf("accepted %d bytes; %v has the residence %v", len(data), r.E, r.Parts)
				}
				if i > 0 && !res[i-1].E.Less(r.E) {
					t.Fatalf("accepted %d bytes; residence of %v follows %v", len(data), r.E, res[i-1].E)
				}
			}
		}
		if err := os.WriteFile(filepath.Join(scratch, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if man, err := readManifestFile(scratch, manifestName); err == nil {
			if man.Magic != checkpointMagic {
				t.Fatalf("accepted a manifest with the magic %q", man.Magic)
			}
			if man.NParts < 1 {
				t.Fatalf("accepted a manifest with %d parts", man.NParts)
			}
		}
	})
}
