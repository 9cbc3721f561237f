package core

import (
	"fmt"
	"math/rand"
)

// WeightedInstance extends Instance with per-candidate prior probabilities,
// realizing the full block tuple-independent probabilistic-database
// semantics the paper connects Q2 to in §2 ("Q2 can be seen as a natural
// definition of evaluating an ML classifier over a block tuple-independent
// probabilistic database with uniform prior") — here with arbitrary priors
// rather than uniform ones.
//
// Probs[i][j] is the prior probability that example i takes candidate j;
// each row must sum to 1. The uniform case Probs[i][j] = 1/M_i reproduces
// normalized Q2 counts exactly.
type WeightedInstance struct {
	*Instance
	Probs [][]float64
}

// NewWeightedInstance validates shapes and row-stochasticity.
func NewWeightedInstance(inst *Instance, probs [][]float64) (*WeightedInstance, error) {
	if len(probs) != inst.N() {
		return nil, fmt.Errorf("core: %d probability rows for %d examples", len(probs), inst.N())
	}
	for i, row := range probs {
		if len(row) != inst.M(i) {
			return nil, fmt.Errorf("core: example %d has %d probabilities for %d candidates", i, len(row), inst.M(i))
		}
		sum := 0.0
		for j, p := range row {
			if p < 0 {
				return nil, fmt.Errorf("core: negative probability at (%d,%d)", i, j)
			}
			sum += p
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			return nil, fmt.Errorf("core: example %d probabilities sum to %v", i, sum)
		}
	}
	return &WeightedInstance{Instance: inst, Probs: probs}, nil
}

// UniformWeights builds the uniform prior for an instance.
func UniformWeights(inst *Instance) [][]float64 {
	probs := make([][]float64, inst.N())
	for i := range probs {
		m := inst.M(i)
		row := make([]float64, m)
		for j := range row {
			row[j] = 1 / float64(m)
		}
		probs[i] = row
	}
	return probs
}

// WeightedQ2 computes P[A_D(t) = y] under the candidate priors: the
// probability, over independently sampled rows, that the K-NN classifier
// predicts y. It is the weighted generalization of the SS algorithm: the
// scan maintains per-row cumulative probability mass below the boundary
// (the weighted α), and the boundary-set DP multiplies probability masses
// instead of candidate counts. O(NM·(log NM + K·N·|Y| + |Γ|·|Y|)) with the
// per-candidate DP recomputed naively — the segment-tree optimization
// applies identically but this reference implementation favors clarity.
func WeightedQ2(wi *WeightedInstance, k int) ([]float64, error) {
	inst := wi.Instance
	if err := validateK(inst, k); err != nil {
		return nil, err
	}
	n := inst.N()
	out := make([]float64, inst.NumLabels)
	order := inst.sortedCandidates()
	// below[i]: prior mass of row i's candidates scanned so far (strictly
	// less similar than the current boundary under the total order).
	below := make([]float64, n)
	tallies := compositions(k, inst.NumLabels)
	winners := make([]int, len(tallies))
	for ti, g := range tallies {
		winners[ti] = argmaxTally(g)
	}
	perLabel := make([][]float64, inst.NumLabels)
	for _, ref := range order {
		i := int(ref.row)
		j := int(ref.cand)
		below[i] += wi.Probs[i][j]
		pOwn := wi.Probs[i][j]
		if pOwn == 0 {
			continue
		}
		// DP over rows per label: ways (probability mass) for label l to
		// contribute exactly c top-K members, with row i forced onto the
		// boundary having picked candidate j.
		for l := 0; l < inst.NumLabels; l++ {
			perLabel[l] = weightedDP(wi, below, i, l, k)
		}
		for ti, g := range tallies {
			prod := pOwn
			for l, c := range g {
				v := perLabel[l][c]
				if v == 0 {
					prod = 0
					break
				}
				prod *= v
			}
			if prod != 0 {
				out[winners[ti]] += prod
			}
		}
	}
	return out, nil
}

// weightedDP is ssExactDP with probability masses: below[n] is the mass not
// in the top-K, 1−below[n] the mass above the boundary.
func weightedDP(wi *WeightedInstance, below []float64, boundaryRow, l, k int) []float64 {
	c := make([]float64, k+1)
	c[0] = 1
	for nn := 0; nn < wi.N(); nn++ {
		if nn == boundaryRow {
			if wi.Label(nn) != l {
				continue
			}
			for x := k; x >= 1; x-- {
				c[x] = c[x-1]
			}
			c[0] = 0
			continue
		}
		if wi.Label(nn) != l {
			continue
		}
		in := 1 - below[nn]
		outMass := below[nn]
		for x := k; x >= 0; x-- {
			v := float64(outMass * c[x])
			if x > 0 {
				v += float64(in * c[x-1])
			}
			c[x] = v
		}
	}
	return c
}

// WeightedBruteForce enumerates every possible world, weighting each by its
// prior probability — the reference implementation for WeightedQ2.
func WeightedBruteForce(wi *WeightedInstance, k int) ([]float64, error) {
	inst := wi.Instance
	if err := validateK(inst, k); err != nil {
		return nil, err
	}
	total := 1.0
	for i := 0; i < inst.N(); i++ {
		total *= float64(inst.M(i))
		if total > MaxBruteWorlds {
			return nil, fmt.Errorf("core: too many worlds for weighted brute force")
		}
	}
	out := make([]float64, inst.NumLabels)
	choice := make([]int, inst.N())
	for {
		p := 1.0
		for i, j := range choice {
			p *= wi.Probs[i][j]
		}
		if p != 0 {
			out[classifyWorld(inst, choice, k)] += p
		}
		i := inst.N() - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < inst.M(i) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out, nil
}

// WeightedSample draws a possible world from the priors (for Monte-Carlo
// estimation under non-uniform priors).
func WeightedSample(wi *WeightedInstance, rng *rand.Rand, choice []int) {
	for i := range choice {
		r := rng.Float64()
		acc := 0.0
		choice[i] = wi.M(i) - 1
		for j, p := range wi.Probs[i] {
			acc += p
			if r < acc {
				choice[i] = j
				break
			}
		}
	}
}
