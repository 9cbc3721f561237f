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
