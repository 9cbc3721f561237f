package core

import (
	"math/rand"
	"testing"
)

// BenchmarkScan measures the scan kernel's record sink over a full scan of a
// mid-sized engine (N=400, M≤4, three labels, K=3) — the work a full
// Retained rescan performs, without the prefix walk, splice and re-sum.
func BenchmarkScan(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngineFromInstance(randomInstance(rng, 400, 4, 3))
	sc := e.MustScratch(3)
	total := len(e.order)
	var out spanResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range sc.alpha {
			sc.alpha[j] = 0
		}
		e.scan(sc, e.pins, 0, total-1, e.N(), false, false, &out)
	}
}
