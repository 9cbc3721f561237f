package core

import (
	"fmt"
	"math"
	"math/big"
)

// SSFastCounts answers Q2 for K = 1 with the incremental SortScan of §3.1.2
// in O(NM log NM): candidates are scanned in ascending similarity while the
// boundary mass Π_{n≠i} α[n]/M_n is maintained in log space (log space keeps
// the scan O(1) per candidate and immune to underflow; genuinely negligible
// masses round to zero, which is what they contribute to the sum anyway).
//
// The returned slice is normalized: out[y] = Q2(D,t,y) / |I_D|. Works for
// any number of labels (for K = 1 the label support equals the boundary
// count of the scanned candidate, Example 4 in the paper).
func SSFastCounts(inst *Instance) []float64 {
	n := inst.N()
	out := make([]float64, inst.NumLabels)
	order := inst.sortedCandidates()
	alpha := make([]int, n)
	zeroCount := n
	logP := 0.0 // Σ_{α[n]>0} log(α[n]/M_n)
	for _, ref := range order {
		i := int(ref.row)
		oldA := alpha[i]
		newA := oldA + 1
		alpha[i] = newA
		if oldA == 0 {
			zeroCount--
			logP += math.Log(float64(newA) / float64(inst.M(i)))
		} else {
			logP += math.Log(float64(newA)) - math.Log(float64(oldA))
		}
		if zeroCount > 0 {
			continue // some row has no candidate ≤ the boundary: empty boundary set
		}
		// Normalized boundary mass of (i,j):
		//   (1/M_i)·Π_{n≠i} α[n]/M_n = exp(logP)/α[i].
		out[inst.Label(i)] += math.Exp(logP) / float64(newA)
	}
	return out
}

// SSFastExactCounts is SSFastCounts with exact big-int boundary counts,
// maintained incrementally by multiplying/dividing one factor per step.
func SSFastExactCounts(inst *Instance) *ExactCounts {
	n := inst.N()
	counts := newExactCounts(inst.NumLabels)
	counts.Total.SetInt64(1)
	for i := 0; i < n; i++ {
		counts.Total.Mul(counts.Total, big.NewInt(int64(inst.M(i))))
	}
	order := inst.sortedCandidates()
	alpha := make([]int, n)
	zeroCount := n
	prod := big.NewInt(1) // Π_{α[n]>0} α[n]
	tmp := new(big.Int)
	for _, ref := range order {
		i := int(ref.row)
		oldA := alpha[i]
		newA := oldA + 1
		alpha[i] = newA
		if oldA == 0 {
			zeroCount--
		} else {
			prod.Quo(prod, tmp.SetInt64(int64(oldA)))
		}
		prod.Mul(prod, tmp.SetInt64(int64(newA)))
		if zeroCount > 0 {
			continue
		}
		// Boundary count of (i,j): Π_{n≠i} α[n] = prod / α[i].
		tmp.SetInt64(int64(newA))
		boundary := new(big.Int).Quo(prod, tmp)
		y := inst.Label(i)
		counts.PerLabel[y].Add(counts.PerLabel[y], boundary)
	}
	return counts
}

// SSFastCheck answers Q1 for K = 1 from the normalized fast counts.
func SSFastCheck(inst *Instance) []bool {
	return CheckFromNormalized(SSFastCounts(inst))
}

// validateK rejects out-of-range K for an instance.
func validateK(inst *Instance, k int) error {
	if k <= 0 || k > inst.N() {
		return fmt.Errorf("core: K=%d out of range for N=%d", k, inst.N())
	}
	return nil
}
