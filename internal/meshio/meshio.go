// Package meshio stores meshes, checkpoints and partition assignments
// in files, so command-line tools can stage workflows (generate,
// partition, improve, adapt) the way the paper's tools pass meshes
// between steps, and a distributed run can restart. It knows files —
// the checkpoint manifest, CRCs, epochs, the assignment file — and no
// entity format: a mesh file and a part file each hold one shipment,
// partition's migration format, which partition writes and reads.
package meshio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/partition"
)

// The assignment file is little-endian.
var le = binary.LittleEndian

var errTruncated = errors.New("meshio: truncated input")

// Write serializes a mesh.
func Write(w io.Writer, m *mesh.Mesh) error {
	data, err := partition.EncodeMesh(m)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Read deserializes a mesh against the given model (may be nil).
func Read(r io.Reader, model *gmi.Model) (*mesh.Mesh, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("meshio: reading mesh: %w", err)
	}
	return partition.DecodeMesh(data, model)
}

// SaveFile writes a mesh to the named file.
func SaveFile(path string, m *mesh.Mesh) error {
	data, err := partition.EncodeMesh(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// LoadFile reads a mesh from the named file.
func LoadFile(path string, model *gmi.Model) (*mesh.Mesh, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return partition.DecodeMesh(data, model)
}

// WriteAssignment stores an element-to-part assignment aligned with the
// mesh's element iteration order.
func WriteAssignment(w io.Writer, parts []int32) error {
	b := le.AppendUint32([]byte("PUMIPT01"), uint32(len(parts)))
	for _, p := range parts {
		b = le.AppendUint32(b, uint32(p))
	}
	_, err := w.Write(b)
	return err
}

// ReadAssignment loads an element-to-part assignment.
func ReadAssignment(r io.Reader) ([]int32, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) >= 8 && string(data[:8]) != "PUMIPT01" {
		return nil, fmt.Errorf("meshio: bad assignment magic %q", data[:8])
	}
	if len(data) < 12 {
		return nil, errTruncated
	}
	n, body := le.Uint32(data[8:]), data[12:]
	// The count must account for every byte left: WriteAssignment writes
	// nothing after the entries, so extra bytes mean a damaged file.
	switch extra := int64(len(body)) - int64(n)*4; {
	case extra < 0:
		return nil, errTruncated
	case extra > 0:
		return nil, fmt.Errorf("meshio: %d bytes after the %d assignment entries", extra, n)
	}
	out := make([]int32, n)
	// Reject corrupt part ids here, at the serial load boundary: a
	// negative id surviving to PlansFromAssignment would blow up deep
	// inside a collective migration instead of failing every rank with
	// a structured error.
	for i := range out {
		out[i] = int32(le.Uint32(body[4*i:]))
		if out[i] < 0 {
			return nil, fmt.Errorf("meshio: assignment entry %d has negative part id %d", i, out[i])
		}
	}
	return out, nil
}
