// Package knn implements the K-nearest-neighbor classifier substrate used by
// the paper: similarity kernels, deterministic top-K selection with a strict
// total order, and majority voting with smallest-label tie-breaking.
package knn

import "math"

// Kernel computes a similarity score between two feature vectors; larger
// values mean more similar (the paper's κ). All kernels must be symmetric.
// The kernels here round every product explicitly (float64(a*b)) so no
// architecture fuses it into a multiply-add: a similarity's bits decide
// the scan order, and so every answer bit (scripts/fma_check.sh).
type Kernel interface {
	// Similarity returns κ(a, b).
	Similarity(a, b []float64) float64
	// Name identifies the kernel in reports.
	Name() string
}

// Box bounds. NegEuclidean, NegSquaredEuclidean, NegManhattan and RBF also
// have a BoxBounds(lo, hi, t) method returning (min, max) with
// min ≤ Similarity(c, t) ≤ max for every c in the box lo[f] ≤ c[f] ≤ hi[f]
// — in O(dim), without evaluating any point of the box. A NaN bound is
// returned as the infinity on its side, so a box holding a NaN similarity
// has min = −Inf. Linear and Cosine have no such method: their extremes
// over a box need more than the per-feature ranges.
//
// Each bound repeats Similarity's own operations, in the same feature
// order, on the per-feature extremes of |c[f] − t[f]|. IEEE rounding is
// monotone, so that alone brackets the kernel's rounded result exactly;
// math.Exp is not correctly rounded, so RBF needs a margin, and widenBounds
// applies one to every kernel: a relative slack of (dim+4)·2⁻⁵³ (dim
// rounded additions plus the square, root and exponential) and an
// absolute (dim+4)·2⁻¹⁰²² for results that underflow into the subnormals.

// widenBounds applies the box-bound slack to [lo, hi] and maps a NaN end to
// the infinity on its side.
func widenBounds(lo, hi float64, dim int) (float64, float64) {
	rel := float64(float64(dim+4) * 0x1p-53)
	abs := float64(float64(dim+4) * 0x1p-1022)
	lo = lo - float64(math.Abs(lo)*rel) - abs
	hi = hi + float64(math.Abs(hi)*rel) + abs
	if lo != lo {
		lo = math.Inf(-1)
	}
	if hi != hi {
		hi = math.Inf(1)
	}
	return lo, hi
}

// featureRange returns the least and greatest |fl(c − t)| over lo ≤ c ≤ hi:
// rounding is monotone, so fl(lo − t) ≤ fl(c − t) ≤ fl(hi − t). A NaN input
// makes both NaN. The builtin max compiles without branches, which matters:
// the sign of lo − t is a coin flip per feature on real data.
func featureRange(lo, hi, t float64) (near, far float64) {
	a, b := lo-t, hi-t
	return max(a, -b, 0), max(-a, b)
}

// sqDistRange brackets Σ_f float64(d_f·d_f), d_f = c[f] − t[f], over the box,
// summed as Similarity sums it.
func sqDistRange(lo, hi, t []float64) (sLo, sHi float64) {
	for f := range t {
		near, far := featureRange(lo[f], hi[f], t[f])
		sLo += float64(near * near)
		sHi += float64(far * far)
	}
	return sLo, sHi
}

// NegEuclidean is the paper's experimental setting ("Euclidean distance as
// the similarity function"): κ(a,b) = −‖a−b‖₂. Monotone in distance, so
// top-K by similarity equals top-K by closeness.
type NegEuclidean struct{}

// Similarity implements Kernel.
func (NegEuclidean) Similarity(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return -math.Sqrt(s)
}

// Name implements Kernel.
func (NegEuclidean) Name() string { return "neg-euclidean" }

// BoxBounds brackets Similarity(c, t) over the box [lo, hi] (see widenBounds).
func (NegEuclidean) BoxBounds(lo, hi, t []float64) (float64, float64) {
	sLo, sHi := sqDistRange(lo, hi, t)
	return widenBounds(-math.Sqrt(sHi), -math.Sqrt(sLo), len(t))
}

// NegSquaredEuclidean is κ(a,b) = −‖a−b‖₂²; same ordering as NegEuclidean
// but cheaper (no sqrt).
type NegSquaredEuclidean struct{}

// Similarity implements Kernel.
func (NegSquaredEuclidean) Similarity(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return -s
}

// Name implements Kernel.
func (NegSquaredEuclidean) Name() string { return "neg-sq-euclidean" }

// BoxBounds brackets Similarity(c, t) over the box [lo, hi] (see widenBounds).
func (NegSquaredEuclidean) BoxBounds(lo, hi, t []float64) (float64, float64) {
	sLo, sHi := sqDistRange(lo, hi, t)
	return widenBounds(-sHi, -sLo, len(t))
}

// NegManhattan is κ(a,b) = −‖a−b‖₁.
type NegManhattan struct{}

// Similarity implements Kernel.
func (NegManhattan) Similarity(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return -s
}

// Name implements Kernel.
func (NegManhattan) Name() string { return "neg-manhattan" }

// BoxBounds brackets Similarity(c, t) over the box [lo, hi] (see widenBounds).
func (NegManhattan) BoxBounds(lo, hi, t []float64) (float64, float64) {
	var sLo, sHi float64
	for f := range t {
		near, far := featureRange(lo[f], hi[f], t[f])
		sLo += near
		sHi += far
	}
	return widenBounds(-sHi, -sLo, len(t))
}

// Linear is the dot-product kernel κ(a,b) = ⟨a,b⟩.
type Linear struct{}

// Similarity implements Kernel.
func (Linear) Similarity(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// Name implements Kernel.
func (Linear) Name() string { return "linear" }

// RBF is the Gaussian kernel κ(a,b) = exp(−γ‖a−b‖²).
type RBF struct {
	// Gamma is the bandwidth parameter γ (> 0).
	Gamma float64
}

// Similarity implements Kernel.
func (k RBF) Similarity(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return math.Exp(-k.Gamma * s)
}

// Name implements Kernel.
func (k RBF) Name() string { return "rbf" }

// BoxBounds brackets Similarity(c, t) over the box [lo, hi] (see
// widenBounds). exp(−γs) is monotone in s whatever γ's sign, so the two
// distance extremes give the two similarity extremes.
func (k RBF) BoxBounds(lo, hi, t []float64) (float64, float64) {
	sLo, sHi := sqDistRange(lo, hi, t)
	a, b := math.Exp(-k.Gamma*sLo), math.Exp(-k.Gamma*sHi)
	return widenBounds(min(a, b), max(a, b), len(t))
}

// Cosine is κ(a,b) = ⟨a,b⟩ / (‖a‖‖b‖); zero vectors get similarity 0.
type Cosine struct{}

// Similarity implements Kernel.
func (Cosine) Similarity(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i] * b[i])
		na += float64(a[i] * a[i])
		nb += float64(b[i] * b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Name implements Kernel.
func (Cosine) Name() string { return "cosine" }
