package core

import (
	"fmt"
	"math"
	"math/rand"
)

// MonteCarloCounts estimates Q2 by sampling possible worlds uniformly,
// training the K-NN classifier in each and tallying predictions. Unlike the
// SS/MM algorithms it makes no use of the classifier's structure, so it is
// the practical fallback the paper's §2 alludes to for classifiers where no
// efficient CP algorithm is known — and an independent statistical check on
// the exact algorithms. Standard error of each fraction is ≤ 1/(2√samples).
func MonteCarloCounts(inst *Instance, k, samples int, rng *rand.Rand) ([]float64, error) {
	if err := validateK(inst, k); err != nil {
		return nil, err
	}
	if samples <= 0 {
		return nil, fmt.Errorf("core: need a positive sample count, got %d", samples)
	}
	counts := make([]float64, inst.NumLabels)
	choice := make([]int, inst.N())
	for s := 0; s < samples; s++ {
		for i := range choice {
			choice[i] = rng.Intn(inst.M(i))
		}
		counts[classifyWorld(inst, choice, k)]++
	}
	for y := range counts {
		counts[y] /= float64(samples)
	}
	return counts, nil
}

// MonteCarloCheck answers Q1 probabilistically: a label is reported certain
// iff every sampled world predicted it. False positives vanish at rate
// (1−p)^samples where p is the true mass of disagreeing worlds; false
// negatives cannot occur.
func MonteCarloCheck(inst *Instance, k, samples int, rng *rand.Rand) ([]bool, error) {
	p, err := MonteCarloCounts(inst, k, samples, rng)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(p))
	for y, v := range p {
		out[y] = v == 1
	}
	return out, nil
}

// MonteCarloAgrees reports whether an exact Q2 distribution lies within z
// standard errors of a Monte-Carlo estimate — a convenience for statistical
// cross-checks.
func MonteCarloAgrees(exact, estimate []float64, samples int, z float64) bool {
	if len(exact) != len(estimate) {
		return false
	}
	for y := range exact {
		se := math.Sqrt(exact[y]*(1-exact[y])/float64(samples)) + 1e-12
		if math.Abs(exact[y]-estimate[y]) > float64(z*se)+1e-9 {
			return false
		}
	}
	return true
}
