package zpart

import (
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
)

// benchVessel is the pipeline benchmark's serial mesh: 31,104 tets.
func benchVessel() *mesh.Mesh {
	return meshgen.Vessel3D(gmi.Vessel(10, 1, 0.6, 1.2), 36, 12)
}

var benchSink int

func BenchmarkDualGraph(b *testing.B) {
	m := benchVessel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := DualGraph(m)
		benchSink += g.N()
	}
}

func BenchmarkMLGraph(b *testing.B) {
	g, _ := DualGraph(benchVessel())
	for _, c := range []struct {
		name string
		k    int
	}{{"k16", 16}, {"k32", 32}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += len(MLGraph(g, c.k))
			}
		})
	}
}

func BenchmarkPHG(b *testing.B) {
	h, _ := ElementHypergraph(benchVessel(), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(PHG(h, 16))
	}
}
