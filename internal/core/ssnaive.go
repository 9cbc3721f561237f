package core

import (
	"fmt"
	"math/big"
)

// compositions returns every vector of `parts` non-negative integers summing
// to total — the paper's valid label-tally vectors Γ (|Γ| = C(total+parts-1,
// total)).
func compositions(total, parts int) [][]int {
	var out [][]int
	cur := make([]int, parts)
	var rec func(pos, left int)
	rec = func(pos, left int) {
		if pos == parts-1 {
			cur[pos] = left
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := 0; v <= left; v++ {
			cur[pos] = v
			rec(pos+1, left-v)
		}
	}
	if parts == 0 {
		return nil
	}
	rec(0, total)
	return out
}

// SSExactCounts answers Q2 with the SortScan algorithm using exact big-int
// arithmetic and per-candidate DP recomputation (Algorithm 1 without the
// incremental optimizations). O((NM)²·K·|Y|) big-int operations — intended
// as the exact reference for instances too large to brute force.
func SSExactCounts(inst *Instance, k int) (*ExactCounts, error) {
	n := inst.N()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("core: K=%d out of range for N=%d", k, n)
	}
	counts := newExactCounts(inst.NumLabels)
	counts.Total.SetInt64(1)
	for i := 0; i < n; i++ {
		counts.Total.Mul(counts.Total, big.NewInt(int64(inst.M(i))))
	}

	tallies := compositions(k, inst.NumLabels)
	winners := make([]int, len(tallies))
	for ti, g := range tallies {
		winners[ti] = argmaxTally(g)
	}

	alpha := make([]int, n)
	perLabel := make([][]*big.Int, inst.NumLabels)
	support := new(big.Int)
	for i := 0; i < n; i++ {
		for j := 0; j < inst.M(i); j++ {
			// Similarity tally α_{i,j}[n]: candidates of row n that are not
			// more similar than (i,j) under the total order.
			for nn := 0; nn < n; nn++ {
				a := 0
				for m := 0; m < inst.M(nn); m++ {
					if !inst.MoreSimilar(nn, m, i, j) {
						a++
					}
				}
				alpha[nn] = a
			}
			// Per-label boundary-set DP C^{i,j}_l(c, N).
			for l := 0; l < inst.NumLabels; l++ {
				perLabel[l] = ssExactDP(inst, alpha, i, l, k)
			}
			// Aggregate supports over all valid label tallies.
			for ti, g := range tallies {
				support.SetInt64(1)
				zero := false
				for l, c := range g {
					if perLabel[l][c].Sign() == 0 {
						zero = true
						break
					}
					support.Mul(support, perLabel[l][c])
				}
				if zero {
					continue
				}
				w := winners[ti]
				counts.PerLabel[w].Add(counts.PerLabel[w], support)
			}
		}
	}
	return counts, nil
}

// ssExactDP computes C^{i,j}_l(c, N) for c = 0..k: the number of ways rows
// with label l can contribute exactly c members of the top-K set, given that
// candidate (i, ·) is the boundary (K-th most similar) element. alpha must
// hold the similarity tally for the boundary candidate.
func ssExactDP(inst *Instance, alpha []int, boundaryRow, l, k int) []*big.Int {
	c := make([]*big.Int, k+1)
	for x := range c {
		c[x] = new(big.Int)
	}
	c[0].SetInt64(1)
	tmp := new(big.Int)
	for nn := 0; nn < inst.N(); nn++ {
		if nn == boundaryRow {
			if inst.Label(nn) != l {
				continue
			}
			// The boundary row is always in the top-K: consume one slot.
			for x := k; x >= 1; x-- {
				c[x].Set(c[x-1])
			}
			c[0].SetInt64(0)
			continue
		}
		if inst.Label(nn) != l {
			continue
		}
		in := int64(inst.M(nn) - alpha[nn]) // candidates more similar than the boundary
		out := int64(alpha[nn])             // candidates not more similar
		for x := k; x >= 0; x-- {
			// c[x] = out·c[x] + in·c[x−1]
			c[x].Mul(c[x], tmp.SetInt64(out))
			if x > 0 && in != 0 {
				c[x].Add(c[x], tmp.SetInt64(in).Mul(tmp, c[x-1]))
			}
		}
	}
	return c
}

// SSExactCheck answers Q1 via SSExactCounts.
func SSExactCheck(inst *Instance, k int) ([]bool, error) {
	counts, err := SSExactCounts(inst, k)
	if err != nil {
		return nil, err
	}
	return CheckFromExact(counts), nil
}
