package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// boundFeatureSpecials are the awkward feature values the bound-first tests
// draw: both zeros, subnormals, values whose squares overflow or underflow,
// the extremes, both infinities and NaN.
var boundFeatureSpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1e-160, 1e154, -1e154, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 1.0 / 3,
}

// boundKernels are the kernels a bound-first case picks from: every kernel
// with box bounds, plus two without (evaluated in full).
var boundKernels = []knn.Kernel{
	knn.NegEuclidean{}, knn.NegSquaredEuclidean{}, knn.NegManhattan{},
	knn.RBF{Gamma: 0.5}, knn.RBF{Gamma: 0}, knn.Linear{}, knn.Cosine{},
}

// boundCase is a feature-level engine-build case: a dataset built by
// dataset.New (so it carries candidate boxes), a kernel, a test point and
// the K the engine is truncated for.
type boundCase struct {
	d      *dataset.Incomplete
	kernel knn.Kernel
	point  []float64
	k      int
}

// decodeBoundCase reads a case from next, one byte per draw. Half the
// feature bytes land on a 1/16 grid and a quarter on a 1/4 grid, so
// distances tie exactly across rows and at T; the rest are
// boundFeatureSpecials. A row's candidates share a base and each differs
// from it in one feature, as repaired cells do.
func decodeBoundCase(next func() int) (boundCase, error) {
	c := boundCase{k: 1 + next()%7}
	numLabels := 2 + next()%2
	dim := 1 + next()%3
	c.kernel = boundKernels[next()%len(boundKernels)]
	feature := func() float64 {
		switch b := next(); {
		case b&0x80 != 0:
			return float64(int8(b<<1)) / 16
		case b&0x40 != 0:
			return boundFeatureSpecials[b%len(boundFeatureSpecials)]
		default:
			return float64(b%8) / 4
		}
	}
	n := c.k + next()%24
	examples := make([]dataset.Example, n)
	for i := range examples {
		m := 1 + next()%5
		base := make([]float64, dim)
		for f := range base {
			base[f] = feature()
		}
		cands := make([][]float64, m)
		for j := range cands {
			cand := append([]float64(nil), base...)
			if j > 0 {
				cand[next()%dim] = feature()
			}
			cands[j] = cand
		}
		examples[i] = dataset.Example{Candidates: cands, Label: next() % numLabels}
	}
	c.point = make([]float64, dim)
	for f := range c.point {
		c.point[f] = feature()
	}
	var err error
	c.d, err = dataset.New(examples, numLabels)
	return c, err
}

// checkBoundFirst builds the bound-first engine for c and checks its build
// against the exact one: the same T, every absent row's every candidate
// below T, and M kept. It returns the untruncated reference, the bound-first
// engine and its number of absent rows.
func checkBoundFirst(t testing.TB, c boundCase) (ref, tr *Engine, absent int) {
	t.Helper()
	exactInst := InstanceFor(c.d, c.kernel, c.point)
	exact := NewTruncatedEngineFromInstance(exactInst, c.k)
	tr = NewTruncatedEngine(c.d, c.kernel, c.point, c.k)
	if tr.t != exact.t {
		t.Fatalf("%s k=%d: bound-first T %+v, exact %+v", c.kernel.Name(), c.k, tr.t, exact.t)
	}
	for i, row := range tr.inst.Sims {
		if tr.inst.M(i) != c.d.Examples[i].M() {
			t.Fatalf("row %d: M %d, dataset %d", i, tr.inst.M(i), c.d.Examples[i].M())
		}
		if row != nil {
			continue
		}
		absent++
		for j, s := range exactInst.Sims[i] {
			if !exact.t.below(simKey(s), int32(i), int32(j)) {
				t.Fatalf("%s k=%d: absent row %d candidate %d (sim %v) is not below T %+v",
					c.kernel.Name(), c.k, i, j, s, exact.t)
			}
		}
	}
	return NewEngineFromInstance(exactInst), tr, absent
}

// TestBoundFirstEngineMatchesUntruncated is the contract of the bound-first
// build on random feature-level cases (every kernel, K ∈ 1..7, grid ties,
// ±0, subnormals, overflowing squares, ±Inf and NaN features): T is the
// exact one, every absent row lies wholly below it, and under random pin
// sequences every answer equals the untruncated engine's with ==.
func TestBoundFirstEngineMatchesUntruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(1901))
	withAbsent := 0
	for trial := 0; trial < 300; trial++ {
		c, err := decodeBoundCase(func() int { return rng.Intn(256) })
		if err != nil {
			t.Fatal(err)
		}
		ref, tr, absent := checkBoundFirst(t, c)
		if absent > 0 {
			withAbsent++
		}
		p := pairEngines(t, ref, tr, c.k)
		p.check(t, rng, "unpinned")
		for s := 0; s < 6; s++ {
			p.step(t, rng)
			p.check(t, rng, "pinned")
		}
	}
	if withAbsent < 60 {
		t.Fatalf("only %d of 300 cases left a row absent; the generator no longer exercises the bounds", withAbsent)
	}
}

// TestBoundFirstEngineOnSupremeShape checks the bound-first build on the
// serving benchmark's shape: most rows absent, and the same answers as the
// untruncated engine under pins.
func TestBoundFirstEngineOnSupremeShape(t *testing.T) {
	d, _ := supremeShaped(1902)
	_, p := supremeShaped(1903)
	ref, tr, absent := checkBoundFirst(t, boundCase{d: d, kernel: knn.NegEuclidean{}, point: p, k: 3})
	if absent*2 < d.N() {
		t.Fatalf("only %d of %d rows absent", absent, d.N())
	}
	pair := pairEngines(t, ref, tr, 3)
	rng := rand.New(rand.NewSource(1904))
	pair.check(t, rng, "supreme unpinned")
	for s := 0; s < 3; s++ {
		pair.step(t, rng)
		pair.check(t, rng, "supreme pinned")
	}
}

// TestBoundFirstNeedsBoxes checks that a dataset without candidate boxes (a
// struct literal) and a kernel without bounds both evaluate every row.
func TestBoundFirstNeedsBoxes(t *testing.T) {
	d, p := supremeShaped(1905)
	literal := &dataset.Incomplete{Examples: d.Examples, NumLabels: d.NumLabels}
	for _, c := range []boundCase{
		{d: literal, kernel: knn.NegEuclidean{}, point: p, k: 3},
		{d: d, kernel: knn.Linear{}, point: p, k: 3},
	} {
		if _, _, absent := checkBoundFirst(t, c); absent != 0 {
			t.Fatalf("%s: %d rows absent without bounds", c.kernel.Name(), absent)
		}
	}
}

// TestBoundFirstInstanceGuardsK checks that a bound-first engine's instance
// refuses to back an engine for a K its absent rows were not proven for.
func TestBoundFirstInstanceGuardsK(t *testing.T) {
	d, p := supremeShaped(1906)
	inst := NewTruncatedEngine(d, knn.NegEuclidean{}, p, 3).Instance()
	NewTruncatedEngineFromInstance(inst, 2) // smaller K: sound
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("K=%d engine over an instance bounded for K=3 did not panic", k)
				}
			}()
			NewTruncatedEngineFromInstance(inst, k)
		}()
	}
}

// TestEngineApproxBytesTracksAllocs checks the figure the engine LRU budgets
// by: Engine.ApproxBytes of a bound-first build is within ±25% of what the
// build allocates, the runtime.MemStats.TotalAlloc delta across it, over 50
// builds on the Supreme shape. A delta can only overstate a build's own
// allocation — by a refill of the build scratch pool, which the race
// detector drains at random, or by any other allocation in the window — so
// the test judges the build with the largest ratio.
func TestEngineApproxBytesTracksAllocs(t *testing.T) {
	d, _ := supremeShaped(1907)
	points := make([][]float64, 50)
	for i := range points {
		_, points[i] = supremeShaped(int64(1908 + i))
	}
	NewTruncatedEngine(d, knn.NegEuclidean{}, points[0], 3) // warm the build scratch pool
	best := 0.0
	var before, after runtime.MemStats
	for _, p := range points {
		runtime.ReadMemStats(&before)
		e := NewTruncatedEngine(d, knn.NegEuclidean{}, p, 3)
		runtime.ReadMemStats(&after)
		best = max(best, float64(e.ApproxBytes())/float64(after.TotalAlloc-before.TotalAlloc))
	}
	if best < 0.75 || best > 1.25 {
		t.Fatalf("ApproxBytes / allocated bytes = %.2f at best over %d builds, want 0.75..1.25", best, len(points))
	}
}

// FuzzBoundFirstEngine decodes a feature-level case and a pin sequence of
// up to maxFuzzPinOps operations and checks the bound-first engine: its T
// is the exact one, every candidate of every absent row lies below it, and
// after each pin operation every query equals the untruncated engine's
// with ==.
func FuzzBoundFirstEngine(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 20, 3, 1, 0x90, 0x91, 0x92, 0x93, 0, 2, 0, 0xa0, 1, 1})
	f.Add([]byte{0, 1, 2, 3, 9, 4, 0x84, 0x88, 0x8c, 0x41, 0x42, 0x43, 0x4d, 2, 0x80, 0, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		c, err := decodeBoundCase(next)
		if err != nil {
			t.Skip(err)
		}
		ref, tr, _ := checkBoundFirst(t, c)
		p := pairEngines(t, ref, tr, c.k)
		rng := rand.New(rand.NewSource(int64(len(data))))
		p.check(t, rng, "unpinned")
		n := c.d.N()
		for ops := 0; len(data) > 0 && ops < maxFuzzPinOps; ops++ {
			switch op, row := next(), next()%n; op % 8 {
			case 0:
				pinAll(-1, -1, p.ref, p.tr)
			case 1:
				pinAll(row, -1, p.ref, p.tr)
			default:
				pinAll(row, next()%c.d.Examples[row].M(), p.ref, p.tr)
			}
			p.check(t, rng, "pinned")
		}
	})
}
