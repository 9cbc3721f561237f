package core

import (
	"repro/internal/dataset"
	"repro/internal/knn"
)

// Algorithm selects a CP query implementation.
type Algorithm int

const (
	// Auto picks the fastest sound algorithm for the query shape:
	// SS fast scan for K = 1, MM for binary Q1, SS-DC otherwise.
	Auto Algorithm = iota
	// BruteForce enumerates possible worlds (tiny instances only).
	BruteForce
	// SSExact is SortScan with exact big-int counts.
	SSExact
	// SSFast is the K = 1 incremental SortScan.
	SSFast
	// SSDC is the segment-tree SortScan (general K, |Y|).
	SSDC
	// SSDCMC is the appendix-A.3 multi-class SortScan.
	SSDCMC
	// MM is the MinMax checking algorithm (Q1, binary labels).
	MM
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case BruteForce:
		return "brute-force"
	case SSExact:
		return "ss-exact"
	case SSFast:
		return "ss-fast"
	case SSDC:
		return "ss-dc"
	case SSDCMC:
		return "ss-dc-mc"
	case MM:
		return "mm"
	default:
		return "unknown"
	}
}

// Q2 answers the counting query for every label at once, returning
// normalized world fractions (Q2(D,t,y)/|I_D|). The test point is implicit
// in the instance's similarities.
func Q2(inst *Instance, k int, alg Algorithm) ([]float64, error) {
	if err := validateK(inst, k); err != nil {
		return nil, err
	}
	switch alg {
	case BruteForce:
		c, err := BruteForceCounts(inst, k)
		if err != nil {
			return nil, err
		}
		return c.Normalize(), nil
	case SSExact:
		c, err := SSExactCounts(inst, k)
		if err != nil {
			return nil, err
		}
		return c.Normalize(), nil
	case SSFast:
		if k != 1 {
			c, err := SSExactCounts(inst, k)
			if err != nil {
				return nil, err
			}
			return c.Normalize(), nil
		}
		return SSFastCounts(inst), nil
	case SSDCMC:
		e := NewTruncatedEngineFromInstance(inst, k)
		sc, err := e.NewScratch(k)
		if err != nil {
			return nil, err
		}
		return append([]float64(nil), e.CountsMC(sc, -1, -1)...), nil
	case Auto:
		if k == 1 {
			return SSFastCounts(inst), nil
		}
		fallthrough
	case SSDC:
		e := NewTruncatedEngineFromInstance(inst, k)
		sc, err := e.NewScratch(k)
		if err != nil {
			return nil, err
		}
		return append([]float64(nil), e.Counts(sc, -1, -1)...), nil
	default:
		c, err := SSExactCounts(inst, k)
		if err != nil {
			return nil, err
		}
		return c.Normalize(), nil
	}
}

// Q1 answers the checking query for every label at once: out[y] is true iff
// every possible world's classifier predicts y.
func Q1(inst *Instance, k int, alg Algorithm) ([]bool, error) {
	switch alg {
	case MM:
		return MMCheck(inst, k)
	case BruteForce:
		return BruteForceCheck(inst, k)
	case SSExact:
		return SSExactCheck(inst, k)
	case Auto:
		if inst.NumLabels == 2 {
			return MMCheck(inst, k)
		}
		fallthrough
	default:
		p, err := Q2(inst, k, alg)
		if err != nil {
			return nil, err
		}
		return CheckFromNormalized(p), nil
	}
}

// QueryDataset is a convenience wrapper: builds the similarity instance for
// (d, t) under kernel and answers both queries.
func QueryDataset(d *dataset.Incomplete, kernel knn.Kernel, t []float64, k int) (q1 []bool, q2 []float64, err error) {
	inst := InstanceFor(d, kernel, t)
	q2, err = Q2(inst, k, Auto)
	if err != nil {
		return nil, nil, err
	}
	if inst.NumLabels == 2 {
		q1, err = MMCheck(inst, k)
		if err != nil {
			return nil, nil, err
		}
	} else {
		q1 = CheckFromNormalized(q2)
	}
	return q1, q2, nil
}
