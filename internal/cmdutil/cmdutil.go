// Package cmdutil holds the small shared pieces of the command-line
// tools: model specification parsing, assignment loading and mesh
// statistics printing.
package cmdutil

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshio"
)

// LoadAssignment reads an element-to-part assignment file and returns
// it with its part count, which must divide over ranks. Any failure
// ends the tool.
func LoadAssignment(path string, ranks int) ([]int32, int) {
	f, err := os.Open(path)
	if err != nil {
		Fail(err)
	}
	assign, err := meshio.ReadAssignment(f)
	f.Close()
	if err != nil {
		Fail(err)
	}
	nparts := 0
	for _, p := range assign {
		nparts = max(nparts, int(p)+1)
	}
	if nparts%ranks != 0 {
		Usagef("part count %d not divisible by ranks %d", nparts, ranks)
	}
	return assign, nparts
}

// ModelSpec describes an analytic model on the command line:
//
//	box:LX,LY,LZ          e.g. box:1,1,1
//	rect:LX,LY            e.g. rect:2,1
//	vessel:LEN,R0,BULGE,BEND
//	wing:SPAN,CHORD,THICK
type ModelSpec struct {
	Kind   string
	Params []float64
}

// ParseModelSpec parses a model specification string.
func ParseModelSpec(s string) (ModelSpec, error) {
	kind, rest, _ := strings.Cut(s, ":")
	spec := ModelSpec{Kind: strings.ToLower(kind)}
	if rest != "" {
		for _, p := range strings.Split(rest, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return spec, fmt.Errorf("cmdutil: bad model parameter %q: %w", p, err)
			}
			spec.Params = append(spec.Params, v)
		}
	}
	want := map[string]int{"box": 3, "rect": 2, "vessel": 4, "wing": 3}
	n, ok := want[spec.Kind]
	if !ok {
		return spec, fmt.Errorf("cmdutil: unknown model kind %q (box, rect, vessel, wing)", spec.Kind)
	}
	if len(spec.Params) != n {
		return spec, fmt.Errorf("cmdutil: model %q needs %d parameters, got %d", spec.Kind, n, len(spec.Params))
	}
	return spec, nil
}

// Model parses a -model flag and builds the model, ending the tool with
// a usage error on a bad spec.
func Model(spec string) (ModelSpec, *gmi.Model) {
	ms, err := ParseModelSpec(spec)
	if err != nil {
		Usagef("%v", err)
	}
	model, _ := ms.Build()
	return ms, model
}

// Build constructs the model. The second return value is the concrete
// typed model for generators that need it.
func (s ModelSpec) Build() (*gmi.Model, any) {
	switch s.Kind {
	case "box":
		m := gmi.Box(s.Params[0], s.Params[1], s.Params[2])
		return m.Model, m
	case "rect":
		m := gmi.Rect(s.Params[0], s.Params[1])
		return m.Model, m
	case "vessel":
		m := gmi.Vessel(s.Params[0], s.Params[1], s.Params[2], s.Params[3])
		return m.Model, m
	case "wing":
		m := gmi.Wing(s.Params[0], s.Params[1], s.Params[2])
		return m.Model, m
	}
	return nil, nil
}

// Dim returns the mesh dimension the model produces.
func (s ModelSpec) Dim() int {
	if s.Kind == "rect" {
		return 2
	}
	return 3
}

// PrintMeshStats writes an entity summary of a serial mesh.
func PrintMeshStats(w io.Writer, m *mesh.Mesh) {
	fmt.Fprintf(w, "dimension %d\n", m.Dim())
	names := []string{"vertices", "edges", "faces", "regions"}
	for d := 0; d <= m.Dim(); d++ {
		nb := 0
		for e := range m.Iter(d) {
			if int(m.Classification(e).Dim) < m.Dim() {
				nb++
			}
		}
		fmt.Fprintf(w, "%-9s %9d (%d classified on the model boundary)\n", names[d], m.Count(d), nb)
	}
	vol := 0.0
	for el := range m.Elements() {
		vol += m.Measure(el)
	}
	fmt.Fprintf(w, "measure   %12.6g\n", vol)
}
