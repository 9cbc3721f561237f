package core

import (
	"math/rand"
	"testing"

	"repro/internal/knn"
)

// BenchmarkScan measures the scan kernel's accumulate walk over a full
// scan — Engine.Counts, the work of every Q2 sweep including a Retained
// memo's — from the seeded α state, on an untruncated engine
// (full) and one truncated for K = 3 (trunc/K3). Two shapes: a mid-sized random
// engine (N=400, M≤4, three labels, K=3), where most positions lie past the
// zero-support transition, and a Supreme-shaped one (supreme/…, N=1000,
// ≈12k candidates), where ≈97% lie before it and truncation skips them.
func BenchmarkScan(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	d, p := supremeShaped(1304)
	for _, shape := range []struct {
		prefix string
		inst   *Instance
	}{
		{"", randomInstance(rng, 400, 4, 3)},
		{"supreme/", InstanceFor(d, knn.NegEuclidean{}, p)},
	} {
		for _, bc := range []struct {
			name string
			e    *Engine
		}{
			{"full", NewEngineFromInstance(shape.inst)},
			{"trunc/K3", NewTruncatedEngineFromInstance(shape.inst, 3)},
		} {
			b.Run(shape.prefix+bc.name, func(b *testing.B) {
				e := bc.e
				sc := e.MustScratch(3)
				b.ReportAllocs()
				for b.Loop() {
					e.Counts(sc, -1, -1)
				}
			})
		}
	}
}

// BenchmarkHypothesisCounts measures CPClean's inner loop — the scan
// kernel's hypothesis walk, answering the pin of every candidate of one
// row in one scan — on the
// Supreme-shaped engine truncated for K = 3, for the uncertain row with kept
// candidates that has the most candidates.
func BenchmarkHypothesisCounts(b *testing.B) {
	d, p := supremeShaped(1304)
	e := NewTruncatedEngineFromInstance(InstanceFor(d, knn.NegEuclidean{}, p), 3)
	row := -1
	for i := 0; i < e.N(); i++ {
		if e.liveIndex(i) >= 0 && (row < 0 || e.inst.M(i) > e.inst.M(row)) {
			row = i
		}
	}
	b.Run("trunc/K3", func(b *testing.B) {
		sc := e.MustScratch(3)
		b.ReportAllocs()
		for b.Loop() {
			e.HypothesisCounts(sc, row)
		}
	})
}
