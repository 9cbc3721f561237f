package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// BenchmarkHypothesisCounts measures one hypothesis scan, answering the
// pin of every candidate of one row — a one-row HypothesisGroup, whole pass
// included — on the Supreme-shaped engine truncated for K = 3, for the
// uncertain row with kept candidates that has the most candidates.
func BenchmarkHypothesisCounts(b *testing.B) {
	e, row := hypothesisBenchEngine()
	b.Run("trunc/K3", func(b *testing.B) {
		sc := e.MustScratch(3)
		b.ReportAllocs()
		for b.Loop() {
			e.HypothesisCounts(sc, row)
		}
	})
}

// BenchmarkHypothesisGroup measures CPClean's inner loop for one stale
// validation point: one HypothesisGroup pass over the point's full row
// group — every row RelevantRows keeps with more than one candidate, as
// selection.SelectBatch scores them — on BenchmarkHypothesisCounts'
// engine, and reports the group's size (rows).
func BenchmarkHypothesisGroup(b *testing.B) {
	e, _ := hypothesisBenchEngine()
	var rows []int
	for i, rel := range e.RelevantRows(3) {
		if rel && e.inst.M(i) > 1 {
			rows = append(rows, i)
		}
	}
	b.Run("trunc/K3", func(b *testing.B) {
		sc := e.MustScratch(3)
		b.ReportAllocs()
		for b.Loop() {
			e.HypothesisGroup(sc, rows, func(int, [][]float64) {})
		}
		b.ReportMetric(float64(len(rows)), "rows")
	})
}

// hypothesisBenchEngine returns the hypothesis benchmarks' engine and row.
func hypothesisBenchEngine() (*Engine, int) {
	d, p := supremeShaped(1304)
	e := NewTruncatedEngineFromInstance(InstanceFor(d, knn.NegEuclidean{}, p), 3)
	row := -1
	for i := 0; i < e.N(); i++ {
		if e.liveIndex(i) >= 0 && (row < 0 || e.inst.M(i) > e.inst.M(row)) {
			row = i
		}
	}
	return e, row
}

// TestTallyHypothesisMatchesTwoPasses checks the fused hypothesis tally
// against the two passes it replaces — tallySupports into the post sums,
// then tallyPre into the pre sums — by bits, on random roots from the tree
// domain with zeros (whole zero roots too), 2–4 labels and K = 1..7, from
// nonzero running sums; and that the roots are left as they were.
func TestTallyHypothesisMatchesTwoPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	value := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return 1
		case 2: // a deep node's coefficient: a product of leaf values
			return rng.Float64() * rng.Float64() * rng.Float64()
		}
		return rng.Float64()
	}
	for trial := 0; trial < 2000; trial++ {
		labels, k := 2+rng.Intn(3), 1+rng.Intn(7)
		sc := newScratchFromShape(scratchShape{n: 1, numLabels: labels}, k)
		for l := range sc.roots {
			sc.roots[l] = make([]float64, k+1)
			if rng.Intn(8) != 0 {
				for c := range sc.roots[l] {
					sc.roots[l][c] = value()
				}
			}
		}
		before := fmt.Sprint(sc.roots)
		lHyp := rng.Intn(labels)
		wantPost, wantPre := make([]float64, labels), make([]float64, labels)
		for y := range wantPost {
			wantPost[y], wantPre[y] = value(), value()
		}
		post, pre := slices.Clone(wantPost), slices.Clone(wantPre)
		tallySupports(sc, wantPost)
		sc.tallyPre(lHyp, wantPre)
		tallyHypothesis(sc, lHyp, post, pre)
		for y := range wantPost {
			if math.Float64bits(post[y]) != math.Float64bits(wantPost[y]) ||
				math.Float64bits(pre[y]) != math.Float64bits(wantPre[y]) {
				t.Fatalf("trial %d (K=%d, %d labels, lHyp=%d, roots %v): post %v pre %v, two passes post %v pre %v",
					trial, k, labels, lHyp, sc.roots, post, pre, wantPost, wantPre)
			}
		}
		if after := fmt.Sprint(sc.roots); after != before {
			t.Fatalf("trial %d: roots %s changed to %s", trial, before, after)
		}
	}
}
