package core

import (
	"testing"

	"repro/internal/knn"
)

// BenchmarkQ1_MM_Engine measures the Q1/MM layer: Engine.CheckMM with K = 3
// on a built Supreme-shaped engine, untruncated (full) and truncated for
// K = 3 (trunc/K3), where rows wholly below T are skipped.
func BenchmarkQ1_MM_Engine(b *testing.B) {
	d, p := supremeShaped(1304)
	inst := InstanceFor(d, knn.NegEuclidean{}, p)
	for _, bc := range []struct {
		name string
		e    *Engine
	}{
		{"full", NewEngineFromInstance(inst)},
		{"trunc/K3", NewTruncatedEngineFromInstance(inst, 3)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.e.CheckMM(3, -1, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
