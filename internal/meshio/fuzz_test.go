package meshio

import (
	"bytes"
	"testing"
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
