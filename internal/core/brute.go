package core

import (
	"fmt"
	"math/big"
)

// MaxBruteWorlds caps brute-force enumeration; BruteForceCounts refuses
// larger instances.
const MaxBruteWorlds = 5_000_000

// BruteForceCounts answers Q2 by enumerating every possible world, training
// the K-NN classifier in each and tallying its prediction — the O(M^N)
// reference implementation from §2.1 ("Computational Challenge"). It is the
// ground truth all polynomial algorithms are tested against.
func BruteForceCounts(inst *Instance, k int) (*ExactCounts, error) {
	n := inst.N()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("core: K=%d out of range for N=%d", k, n)
	}
	totalWorlds := big.NewInt(1)
	for i := 0; i < n; i++ {
		totalWorlds.Mul(totalWorlds, big.NewInt(int64(inst.M(i))))
	}
	if totalWorlds.Cmp(big.NewInt(MaxBruteWorlds)) > 0 {
		return nil, fmt.Errorf("core: %s possible worlds exceed brute-force limit %d", totalWorlds, MaxBruteWorlds)
	}

	counts := newExactCounts(inst.NumLabels)
	counts.Total.Set(totalWorlds)
	choice := make([]int, n)
	one := big.NewInt(1)
	for {
		y := classifyWorld(inst, choice, k)
		counts.PerLabel[y].Add(counts.PerLabel[y], one)
		// Odometer increment, last row fastest.
		i := n - 1
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
	return counts, nil
}

// classifyWorld runs the K-NN classifier in the possible world selected by
// choice, using the shared total order and vote tie-break.
func classifyWorld(inst *Instance, choice []int, k int) int {
	n := inst.N()
	// Selection of the K most similar rows: repeated linear scans — O(NK),
	// fine for brute-force-sized inputs and trivially correct.
	inTop := make([]bool, n)
	tally := make([]int, inst.NumLabels)
	for kk := 0; kk < k; kk++ {
		best := -1
		for i := 0; i < n; i++ {
			if inTop[i] {
				continue
			}
			if best == -1 || inst.MoreSimilar(i, choice[i], best, choice[best]) {
				best = i
			}
		}
		inTop[best] = true
		tally[inst.Label(best)]++
	}
	return argmaxTally(tally)
}

// argmaxTally returns the winning label of a vote tally (smallest label on
// ties) — must match knn.ArgmaxTally.
func argmaxTally(tally []int) int {
	best, bestCount := 0, -1
	for l, c := range tally {
		if c > bestCount {
			best, bestCount = l, c
		}
	}
	return best
}

// BruteForceCheck answers Q1 by brute force.
func BruteForceCheck(inst *Instance, k int) ([]bool, error) {
	counts, err := BruteForceCounts(inst, k)
	if err != nil {
		return nil, err
	}
	return CheckFromExact(counts), nil
}
