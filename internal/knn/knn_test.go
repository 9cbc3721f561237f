package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelsBasics(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if s := (NegEuclidean{}).Similarity(a, b); s != -5 {
		t.Fatalf("neg euclidean = %v", s)
	}
	if s := (NegSquaredEuclidean{}).Similarity(a, b); s != -25 {
		t.Fatalf("neg sq euclidean = %v", s)
	}
	if s := (NegManhattan{}).Similarity(a, b); s != -7 {
		t.Fatalf("neg manhattan = %v", s)
	}
	if s := (Linear{}).Similarity([]float64{1, 2}, []float64{3, 4}); s != 11 {
		t.Fatalf("linear = %v", s)
	}
	if s := (RBF{Gamma: 1}).Similarity(a, a); s != 1 {
		t.Fatalf("rbf self = %v", s)
	}
	if s := (Cosine{}).Similarity([]float64{1, 0}, []float64{2, 0}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("cosine parallel = %v", s)
	}
	if s := (Cosine{}).Similarity([]float64{0, 0}, []float64{1, 0}); s != 0 {
		t.Fatalf("cosine zero = %v", s)
	}
}

func TestKernelSymmetryProperty(t *testing.T) {
	kernels := []Kernel{NegEuclidean{}, NegSquaredEuclidean{}, NegManhattan{}, Linear{}, RBF{Gamma: 0.5}, Cosine{}}
	f := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		a, b := []float64{ax, ay}, []float64{bx, by}
		for _, k := range kernels {
			sa, sb := k.Similarity(a, b), k.Similarity(b, a)
			if sa != sb && !(math.IsNaN(sa) && math.IsNaN(sb)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func anyBad(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
			return true
		}
	}
	return false
}

func TestTopKAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		k := 1 + rng.Intn(n)
		sims := make([]float64, n)
		for i := range sims {
			sims[i] = float64(rng.Intn(5)) // deliberate ties
		}
		got := TopK(sims, k)
		// Reference: full sort under the total order.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			na := Neighbor{Index: idx[a], Sim: sims[idx[a]]}
			nb := Neighbor{Index: idx[b], Sim: sims[idx[b]]}
			return na.MoreSimilarThan(nb)
		})
		want := idx[:k]
		sort.Ints(got)
		wantSorted := append([]int(nil), want...)
		sort.Ints(wantSorted)
		for i := range wantSorted {
			if got[i] != wantSorted[i] {
				t.Fatalf("trial %d: TopK=%v want %v (sims=%v k=%d)", trial, got, wantSorted, sims, k)
			}
		}
	}
}

func TestVoteTieBreak(t *testing.T) {
	if v := Vote([]int{1, 0, 1, 0}, 2); v != 0 {
		t.Fatalf("tie should go to label 0, got %d", v)
	}
	if v := Vote([]int{2, 2, 1}, 3); v != 2 {
		t.Fatalf("majority = %d", v)
	}
	if v := ArgmaxTally([]int{0, 3, 3}); v != 1 {
		t.Fatalf("tally tie-break = %d", v)
	}
}

func TestClassifierValidation(t *testing.T) {
	x := [][]float64{{0}, {1}}
	if _, err := NewClassifier(0, NegEuclidean{}, x, []int{0, 1}, 2); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewClassifier(3, NegEuclidean{}, x, []int{0, 1}, 2); err == nil {
		t.Fatal("K>N accepted")
	}
	if _, err := NewClassifier(1, NegEuclidean{}, x, []int{0}, 2); err == nil {
		t.Fatal("len mismatch accepted")
	}
	if _, err := NewClassifier(1, NegEuclidean{}, x, []int{0, 5}, 2); err == nil {
		t.Fatal("label out of range accepted")
	}
}

func TestClassifierPredict(t *testing.T) {
	// Two clusters on a line.
	x := [][]float64{{0}, {0.1}, {0.2}, {1}, {1.1}, {1.2}}
	y := []int{0, 0, 0, 1, 1, 1}
	clf, err := NewClassifier(3, NegEuclidean{}, x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p := clf.Predict([]float64{0.05}); p != 0 {
		t.Fatalf("predict left cluster = %d", p)
	}
	if p := clf.Predict([]float64{1.05}); p != 1 {
		t.Fatalf("predict right cluster = %d", p)
	}
	acc := clf.Accuracy([][]float64{{0}, {1.2}}, []int{0, 1})
	if acc != 1 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestClassifierK1IsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([][]float64, 20)
	y := make([]int, 20)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = rng.Intn(2)
	}
	clf, err := NewClassifier(1, NegEuclidean{}, x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64(), rng.Float64()}
		best, bestD := -1, math.Inf(1)
		for i := range x {
			d := math.Hypot(x[i][0]-q[0], x[i][1]-q[1])
			if d < bestD {
				best, bestD = i, d
			}
		}
		if p := clf.Predict(q); p != y[best] {
			t.Fatalf("1-NN prediction %d != nearest label %d", p, y[best])
		}
	}
}

func TestPredictAll(t *testing.T) {
	x := [][]float64{{0}, {1}}
	clf, err := NewClassifier(1, NegEuclidean{}, x, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := clf.PredictAll([][]float64{{-1}, {2}})
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("predict all = %v", got)
	}
}

// boxValues are the feature values TestBoxBoundsBracketSimilarity draws
// besides normal draws: both zeros, subnormals, values whose squares
// underflow or overflow, the extremes, both infinities and NaN.
var boxValues = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1e-160, -1e-160, 1e154, -1e154, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestBoxBoundsBracketSimilarity checks every kernel's BoxBounds against
// Similarity: for random boxes (spanned by random candidates, as dataset.New
// spans them) and test points, extremes included, every candidate and every
// sampled interior point c has min ≤ Similarity(c, t) ≤ max, a NaN
// similarity only under min = −Inf, and no bound is NaN. Linear and Cosine
// have no bounds.
func TestBoxBoundsBracketSimilarity(t *testing.T) {
	type bounder interface {
		Kernel
		BoxBounds(lo, hi, t []float64) (float64, float64)
	}
	kernels := []bounder{NegEuclidean{}, NegSquaredEuclidean{}, NegManhattan{},
		RBF{Gamma: 0.5}, RBF{Gamma: 0}, RBF{Gamma: -0.5}, RBF{Gamma: 1e300}}
	for _, k := range []Kernel{Linear{}, Cosine{}} {
		if _, ok := k.(bounder); ok {
			t.Fatalf("%s has box bounds", k.Name())
		}
	}
	rng := rand.New(rand.NewSource(1901))
	value := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return boxValues[rng.Intn(len(boxValues))]
		case 1:
			return float64(rng.Intn(9)) / 4 // exact ties
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20))
		}
	}
	for trial := 0; trial < 20000; trial++ {
		dim := 1 + rng.Intn(8)
		cands := make([][]float64, 1+rng.Intn(4))
		for j := range cands {
			c := make([]float64, dim)
			for f := range c {
				if j > 0 && rng.Intn(2) == 0 {
					c[f] = cands[0][f] // candidates differ in a few features
				} else {
					c[f] = value()
				}
			}
			cands[j] = c
		}
		lo := append([]float64(nil), cands[0]...)
		hi := append([]float64(nil), cands[0]...)
		for _, c := range cands[1:] {
			for f, v := range c {
				lo[f], hi[f] = math.Min(lo[f], v), math.Max(hi[f], v)
			}
		}
		point := make([]float64, dim)
		for f := range point {
			point[f] = value()
			if rng.Intn(4) == 0 && !math.IsNaN(lo[f]) {
				point[f] = lo[f] + (hi[f]-lo[f])*rng.Float64() // inside the box
			}
		}
		for s := 0; s < 4; s++ { // interior points
			c := make([]float64, dim)
			for f := range c {
				c[f] = lo[f] + (hi[f]-lo[f])*rng.Float64()
				if !(c[f] >= lo[f] && c[f] <= hi[f]) {
					c[f] = lo[f]
				}
			}
			cands = append(cands, c)
		}
		for _, k := range kernels {
			min, max := k.BoxBounds(lo, hi, point)
			if math.IsNaN(min) || math.IsNaN(max) {
				t.Fatalf("%s: NaN bound [%v, %v] for box %v..%v, t %v", k.Name(), min, max, lo, hi, point)
			}
			for _, c := range cands {
				s := k.Similarity(c, point)
				if math.IsNaN(s) && min != math.Inf(-1) || s < min || s > max {
					t.Fatalf("%s: Similarity(%v, %v) = %v outside [%v, %v] for box %v..%v",
						k.Name(), c, point, s, min, max, lo, hi)
				}
			}
		}
	}
}
