package core

import (
	"math/rand"
	"testing"

	"repro/internal/knn"
)

// BenchmarkScan measures the scan kernel's record sink over a full scan —
// the work a full Retained rescan performs, without the prefix walk, splice
// and re-sum — each from its seeded α state, on an untruncated engine (full)
// and one truncated for K = 3 (trunc/K3). Two shapes: a mid-sized random
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
				var out spanResult
				b.ReportAllocs()
				for b.Loop() {
					zeroRows := e.seedAlpha(sc.alpha, e.pins)
					e.scan(sc, e.pins, 0, len(e.order)-1, zeroRows, false, false, &out)
				}
			})
		}
	}
}
