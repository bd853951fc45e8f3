package meshio

import (
	"bytes"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
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

// FuzzRead feeds arbitrary bytes to the mesh file reader, tag section
// included — the format pumi-info, parma-improve and pumi-part load from
// outside. It must never panic; a mesh it accepts must survive
// CheckConsistency without a panic, and one Write of it must be a fixed
// point: reading those bytes back and writing again gives the same
// bytes. The seeds are a valid box, a box with every tag kind, and the
// forged inputs of TestBadInputs and TestDecodeRejectsCountsPastMaxSlots;
// crashers land under testdata/fuzz/FuzzRead.
func FuzzRead(f *testing.F) {
	model := gmi.Box(1, 1, 1)
	box := meshgen.Box3D(model, 1, 1, 1)
	good := appendMesh(nil, box)
	f.Add(good)
	f.Add(appendMesh(nil, taggedBox(f)))
	f.Add(good[:len(good)/2])
	f.Add([]byte("JUNKJUNK"))
	f.Add([]byte{})
	// The first triangle names its first vertex twice.
	edgesAt := len(magicV2) + 8 + box.Count(0)*vertexBytes
	triAt := edgesAt + 4 + box.Count(1)*minEntityBytes + 4
	twice := bytes.Clone(good)
	copy(twice[triAt+9:triAt+13], twice[triAt+5:triAt+9])
	f.Add(twice)
	// Counts past the kernel's capacity: vertices, then edges.
	for _, at := range []int{len(magicV2) + 4, edgesAt} {
		huge := bytes.Clone(good)
		le.PutUint32(huge[at:], mesh.MaxSlots+1)
		f.Add(huge)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data), model.Model)
		if err != nil {
			return
		}
		_ = m.CheckConsistency() // a hostile but well-formed file may fail it; it may not panic
		once := appendMesh(nil, m)
		m2, err := decodeMesh(once, model.Model)
		if err != nil {
			t.Fatalf("accepted %d bytes whose re-encoding is rejected: %v", len(data), err)
		}
		if twice := appendMesh(nil, m2); !bytes.Equal(once, twice) {
			t.Fatalf("accepted %d bytes; written, read and written again, %d bytes became %d different ones", len(data), len(once), len(twice))
		}
	})
}
