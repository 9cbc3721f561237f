package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// sortedCandidatesRef is the comparator reference for sortedCandidates: a
// plain sort under MoreSimilar's order (moreSimilar), over a per-row table
// of the similarities read once up front — the [][]float64 view the
// comparator sort ran over before the radix order replaced it, so
// BenchmarkEngineBuild/order-ref times the sort, not Instance's row lookup.
// Any strict total order has one sorted permutation, so the radix order
// must equal it exactly.
func sortedCandidatesRef(in *Instance) []candRef {
	out := make([]candRef, 0, in.TotalCandidates())
	sims := make([][]float64, in.N())
	for i := range sims {
		sims[i] = in.Row(i)
		for j := range sims[i] {
			out = append(out, candRef{int32(i), int32(j)})
		}
	}
	sort.Slice(out, func(x, y int) bool {
		a, b := out[x], out[y]
		return moreSimilar(sims[b.row][b.cand], int(b.row), int(b.cand), sims[a.row][a.cand], int(a.row), int(a.cand))
	})
	return out
}

// specialInstance draws similarities from a small pool of awkward values —
// heavy ties, both zeros, both infinities, NaN, subnormals, extremes — with
// every other row a single candidate.
func specialInstance(rng *rand.Rand, n, maxM int) *Instance {
	pool := []float64{
		math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1),
		-1, 1, 0.5, -0.5, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1e-300, -1e300,
	}
	sims := make([][]float64, n)
	labels := make([]int, n)
	for i := range sims {
		m := 1
		if i%2 == 1 {
			m = 1 + rng.Intn(maxM)
		}
		row := make([]float64, m)
		for j := range row {
			if rng.Intn(4) == 0 {
				row[j] = rng.NormFloat64()
			} else {
				row[j] = pool[rng.Intn(len(pool))]
			}
		}
		sims[i] = row
		labels[i] = rng.Intn(2)
	}
	return MustNewInstance(sims, labels, 2)
}

// supremeShaped returns a dataset shaped like the Supreme benchmark task:
// 1000 rows of dim 7, binary labels, candidate counts drawn from the task's
// {1, 3, 5, 15, 25} mix, features on a quarter/third grid (so many
// similarities tie), plus a test point on the same grid.
func supremeShaped(seed int64) (*dataset.Incomplete, []float64) {
	rng := rand.New(rand.NewSource(seed))
	grid := []float64{0, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 0.75, 0.8, 1}
	point := func() []float64 {
		p := make([]float64, 7)
		for f := range p {
			p[f] = grid[rng.Intn(len(grid))]
		}
		return p
	}
	counts := []int{1, 3, 5, 5, 5, 15, 25, 25, 25}
	examples := make([]dataset.Example, 1000)
	for i := range examples {
		base := point()
		m := counts[rng.Intn(len(counts))]
		cands := make([][]float64, m)
		for j := range cands {
			c := append([]float64(nil), base...)
			if j > 0 {
				c[rng.Intn(7)] = grid[rng.Intn(len(grid))]
			}
			cands[j] = c
		}
		examples[i] = dataset.Example{Candidates: cands, Label: rng.Intn(2)}
	}
	return dataset.MustNew(examples, 2), point()
}

func TestSortedCandidatesMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	check := func(label string, inst *Instance) {
		t.Helper()
		if got, want := inst.sortedCandidates(), sortedCandidatesRef(inst); !slices.Equal(got, want) {
			t.Fatalf("%s: radix order differs from the comparator order", label)
		}
	}
	for trial := 0; trial < 500; trial++ {
		check("special", specialInstance(rng, 1+rng.Intn(40), 1+rng.Intn(6)))
		check("tied", tiedInstance(rng, 1+rng.Intn(30), 4, 2))
		check("random", randomInstance(rng, 2+rng.Intn(30), 4, 3))
	}
	d, p := supremeShaped(1302)
	check("supreme-shaped", InstanceFor(d, knn.NegEuclidean{}, p))
}

// TestSortedCandidatesConcurrent sorts instances of varying sizes from
// several goroutines at once, so pooled sort buffers are shared, grown and
// reused at shorter lengths under the race detector.
func TestSortedCandidatesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 50; trial++ {
				inst := specialInstance(rng, 1+rng.Intn(200), 1+rng.Intn(8))
				if !slices.Equal(inst.sortedCandidates(), sortedCandidatesRef(inst)) {
					t.Errorf("seed %d trial %d: radix order differs from the comparator order", seed, trial)
					return
				}
			}
		}(int64(1310 + g))
	}
	wg.Wait()
}

// TestMoreSimilarStrictTotalOrderWithNaN checks irreflexivity, asymmetry,
// totality and transitivity over every candidate triple of instances full of
// NaN, ±0 and ±Inf.
func TestMoreSimilarStrictTotalOrderWithNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(1303))
	for trial := 0; trial < 20; trial++ {
		inst := specialInstance(rng, 6, 3)
		var refs []candRef
		for i := 0; i < inst.N(); i++ {
			for j := range inst.Row(i) {
				refs = append(refs, candRef{int32(i), int32(j)})
			}
		}
		less := func(a, b candRef) bool {
			return inst.MoreSimilar(int(a.row), int(a.cand), int(b.row), int(b.cand))
		}
		for _, a := range refs {
			if less(a, a) {
				t.Fatalf("%v more similar than itself", a)
			}
			for _, b := range refs {
				if a != b && less(a, b) == less(b, a) {
					t.Fatalf("%v vs %v: not exactly one direction", a, b)
				}
				for _, c := range refs {
					if less(a, b) && less(b, c) && !less(a, c) {
						t.Fatalf("%v > %v > %v but not %v > %v", a, b, c, a, c)
					}
				}
			}
		}
	}
}

// TestNaNSimilarityBruteForceAgree feeds finite inputs whose linear-kernel
// similarity overflows to Inf + (−Inf) = NaN, and checks that SS-DC, SS-DC-MC
// and MM agree with brute force on it, and that RelevantRows keeps every row
// that some world's top-K contains.
func TestNaNSimilarityBruteForceAgree(t *testing.T) {
	d := dataset.MustNew([]dataset.Example{
		{Candidates: [][]float64{{1e308, 1e308}, {1, 0}}, Label: 0},
		{Candidates: [][]float64{{0, 1}}, Label: 1},
		{Candidates: [][]float64{{-1e308, 1e308}, {1e308, 1e308}, {2, 0}}, Label: 1},
		{Candidates: [][]float64{{1, 1}, {1e308, 1e308}}, Label: 0},
		{Candidates: [][]float64{{-3, 0}}, Label: 1},
	}, 2)
	inst := InstanceFor(d, knn.Linear{}, []float64{1e308, -1e308})
	if s := inst.Row(0)[0]; !math.IsNaN(s) {
		t.Fatalf("fixture no longer produces NaN: sim %v", s)
	}
	for k := 1; k <= 3; k++ {
		want, err := BruteForceCounts(inst, k)
		if err != nil {
			t.Fatal(err)
		}
		wantFr := want.Normalize()
		e := NewEngineFromInstance(inst)
		sc := e.MustScratch(k)
		if got := e.Counts(sc, -1, -1); maxAbsDiff(got, wantFr) > 1e-12 {
			t.Fatalf("K=%d: SS-DC %v, brute force %v", k, got, wantFr)
		}
		if got := e.CountsMC(sc, -1, -1); maxAbsDiff(got, wantFr) > 1e-12 {
			t.Fatalf("K=%d: SS-DC-MC %v, brute force %v", k, got, wantFr)
		}
		wantQ1, err := BruteForceCheck(inst, k)
		if err != nil {
			t.Fatal(err)
		}
		gotQ1, err := e.CheckMM(k, -1, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotQ1, wantQ1) {
			t.Fatalf("K=%d: MM %v, brute force %v", k, gotQ1, wantQ1)
		}
		rel := e.RelevantRows(k)
		for i, r := range rel {
			if !r && rowInSomeTopK(inst, i, k) {
				t.Fatalf("K=%d: row %d marked irrelevant but reaches a top-%d", k, i, k)
			}
		}
	}
}

// rowInSomeTopK reports whether row i is among the K most similar rows in
// some possible world of inst.
func rowInSomeTopK(inst *Instance, i, k int) bool {
	n := inst.N()
	choice := make([]int, n)
	for {
		above := 0
		for r := 0; r < n; r++ {
			if r != i && inst.MoreSimilar(r, choice[r], i, choice[i]) {
				above++
			}
		}
		if above < k {
			return true
		}
		r := n - 1
		for ; r >= 0; r-- {
			choice[r]++
			if choice[r] < inst.M(r) {
				break
			}
			choice[r] = 0
		}
		if r < 0 {
			return false
		}
	}
}

// BenchmarkEngineBuild measures the engine-build layer on a Supreme-shaped
// dataset: the whole bound-first build of an engine truncated for K = 3
// (dataset/trunc/K3: row bounds, the kernel on the rows they keep, the
// scan view and the engine's row arrays), and its steps over the full
// instance — the similarity view of every row (sims), the untruncated radix
// scan order (order), the order truncated for K = 3 (order-trunc/K3:
// extremes, threshold and the sort of the kept candidates), and the
// comparator sort the radix order replaced (order-ref).
func BenchmarkEngineBuild(b *testing.B) {
	d, p := supremeShaped(1304)
	inst := InstanceFor(d, knn.NegEuclidean{}, p)
	b.Run("dataset/trunc/K3", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			NewTruncatedEngine(d, knn.NegEuclidean{}, p, 3)
		}
	})
	b.Run("sims", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			InstanceFor(d, knn.NegEuclidean{}, p)
		}
	})
	b.Run("order", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			inst.sortedCandidates()
		}
	})
	b.Run("order-trunc/K3", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			inst.scanView(3)
		}
	})
	b.Run("order-ref", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sortedCandidatesRef(inst)
		}
	})
}
