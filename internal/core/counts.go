package core

import (
	"fmt"
	"math"
	"math/big"
)

// ExactCounts holds exact Q2 answers: PerLabel[y] is the number of possible
// worlds whose trained classifier predicts label y; Total is |I_D| = Π M_i.
type ExactCounts struct {
	PerLabel []*big.Int
	Total    *big.Int
}

// newExactCounts allocates zeroed counts for numLabels labels.
func newExactCounts(numLabels int) *ExactCounts {
	per := make([]*big.Int, numLabels)
	for i := range per {
		per[i] = new(big.Int)
	}
	return &ExactCounts{PerLabel: per, Total: new(big.Int)}
}

// Sum returns Σ_y PerLabel[y].
func (c *ExactCounts) Sum() *big.Int {
	s := new(big.Int)
	for _, v := range c.PerLabel {
		s.Add(s, v)
	}
	return s
}

// Consistent reports whether the per-label counts sum to the world count —
// an invariant of every correct Q2 implementation.
func (c *ExactCounts) Consistent() bool { return c.Sum().Cmp(c.Total) == 0 }

// Normalize converts the counts to per-label fractions of the world count.
func (c *ExactCounts) Normalize() []float64 {
	out := make([]float64, len(c.PerLabel))
	total := new(big.Float).SetInt(c.Total)
	if c.Total.Sign() == 0 {
		return out
	}
	for i, v := range c.PerLabel {
		f := new(big.Float).SetInt(v)
		f.Quo(f, total)
		out[i], _ = f.Float64()
	}
	return out
}

// String renders the counts for debugging.
func (c *ExactCounts) String() string {
	return fmt.Sprintf("ExactCounts{per=%v total=%s}", c.PerLabel, c.Total.String())
}

// CheckFromExact answers Q1 from exact Q2 counts: label y is certainly
// predicted iff every possible world predicts y.
func CheckFromExact(c *ExactCounts) []bool {
	out := make([]bool, len(c.PerLabel))
	for i, v := range c.PerLabel {
		out[i] = v.Cmp(c.Total) == 0 && c.Total.Sign() > 0
	}
	return out
}

// CertainEps is the tolerance used when deciding certainty from normalized
// float64 counts: a label with fraction ≥ 1−CertainEps is considered CP'ed.
const CertainEps = 1e-9

// CheckFromNormalized answers Q1 from normalized Q2 fractions.
func CheckFromNormalized(p []float64) []bool {
	out := make([]bool, len(p))
	for i, v := range p {
		out[i] = v >= 1-CertainEps
	}
	return out
}

// IsCertain reports whether any label is certainly predicted according to
// the normalized fractions.
func IsCertain(p []float64) bool {
	for _, v := range p {
		if v >= 1-CertainEps {
			return true
		}
	}
	return false
}

// Entropy returns the Shannon entropy (nats) of a normalized label
// distribution — the paper's H(A_D(t) | ...) computed from Q2 (§4, Eq. 3).
// Tiny negative or >1 deviations from float error are clamped.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v <= 0 {
			continue
		}
		if v >= 1 {
			return 0
		}
		h -= float64(v * math.Log(v))
	}
	if h < 0 {
		return 0
	}
	return h
}

// ArgmaxProb returns the most supported label under smallest-label
// tie-breaking.
func ArgmaxProb(p []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range p {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
