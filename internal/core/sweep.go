package core

// This file holds the SS-DC scan kernel (§3.1.3 + appendix A.2): the one
// ordered walk over the engine's sorted kept candidates (all NM of them
// untruncated), from the seeded α state, that forces each scanned
// candidate's row onto the boundary, reads the boundary supports off the
// per-label segment-tree roots, adds them into the Scratch's counts, and
// restores the row's leaf. Every sequential Q2 path runs it —
// Engine.Counts, Engine.CountsMC and a Retained memo's full sweep.
// HypothesisCounts keeps its own two-tree variant of the walk.

// scan walks every kept scan position with real tree work under the given
// pin vector (e.pins, or pinsFor's copy carrying a per-query override),
// from the α state seedAlpha derives, adding each position's supports into
// sc.counts. useMC selects the appendix-A.3 winner-cap accumulator instead
// of tally enumeration. The trees are bulk-built at the first position
// whose boundary support is not provably zero. Returns the number of
// positions that performed tree work.
func (e *Engine) scan(sc *Scratch, pins []int32, useMC bool) int64 {
	inst := e.inst
	labelOf := e.labelOf
	rowPos := e.rowPos
	alpha := sc.alpha
	k := sc.k
	zeroRows := e.seedAlpha(alpha, pins)
	built := false
	var scanned int64
	for _, ref := range e.order {
		i := int(ref.row)
		ch := int(pins[i])
		if ch >= 0 && int(ref.cand) != ch {
			continue // candidate eliminated by cleaning
		}
		mEff := inst.M(i)
		if ch >= 0 {
			mEff = 1
		}
		alpha[i]++
		if alpha[i] == 1 {
			zeroRows--
		}
		// zeroRows counts rows with α = 0. Every such row must place a
		// candidate in the top-K (all its candidates are more similar than
		// the boundary), so while zeroRows > K−1 (excluding the boundary row,
		// whose α has just been incremented) the boundary support is
		// identically zero. During that prefix only α is maintained; the
		// trees are built in one bulk pass at the transition.
		if zeroRows > k-1 {
			continue
		}
		if !built {
			e.buildLeaves(sc, pins)
			built = true
		}
		a := float64(alpha[i]) / float64(mEff)
		tr := sc.trees[labelOf[i]]
		p := rowPos[i]
		// Force row i onto the boundary: it contributes exactly one top-K
		// slot, with probability 1/mEff of picking this candidate. Read the
		// supports, then restore the leaf to its scanned state [α/M, 1−α/M].
		tr.SetLeaf(p, 0, 1/float64(mEff))
		if useMC {
			e.mcSupports(sc, sc.counts)
		} else {
			tallySupports(sc, sc.rootsNormal, sc.counts)
		}
		tr.SetLeaf(p, a, 1-a)
		scanned++
	}
	return scanned
}

// tallySupports enumerates every label tally against the given per-label root
// polynomials (Algorithm 1, lines 9-12), adding each nonzero support to
// out[winner].
func tallySupports(sc *Scratch, roots [][]float64, out []float64) {
	for ti, g := range sc.tallies {
		prod := 1.0
		for l, c := range g {
			v := roots[l][c]
			if v == 0 {
				prod = 0
				break
			}
			prod *= v
		}
		if prod != 0 {
			out[sc.winners[ti]] += prod
		}
	}
}

// mcSupports is the appendix-A.3 multi-class accumulator: instead of
// enumerating all C(K+|Y|−1, K) label tallies, for each winning label l and
// winning tally c it runs a winner-cap DP over the other labels (labels
// smaller than l capped at c−1, larger capped at c — realizing the
// smallest-label vote tie-break exactly). O(|Y|²K³) per scanned candidate.
// Supports are added into out.
func (e *Engine) mcSupports(sc *Scratch, out []float64) {
	k := sc.k
	for l := 0; l < e.numLabels; l++ {
		rootL := sc.trees[l].Root()
		for c := 1; c <= k; c++ {
			wl := rootL[c]
			if wl == 0 {
				continue
			}
			// DP over the other labels filling the remaining k−c slots,
			// each label l' capped at c−1 (l' < l) or c (l' > l).
			rem := k - c
			dp := sc.dpA[:rem+1]
			next := sc.dpB[:rem+1]
			for s := range dp {
				dp[s] = 0
			}
			dp[0] = 1
			for lp := 0; lp < e.numLabels; lp++ {
				if lp == l {
					continue
				}
				capL := c
				if lp < l {
					capL = c - 1
				}
				rootP := sc.trees[lp].Root()
				for s := 0; s <= rem; s++ {
					acc := 0.0
					hi := s
					if hi > capL {
						hi = capL
					}
					for u := 0; u <= hi; u++ {
						if rootP[u] != 0 && dp[s-u] != 0 {
							acc += float64(rootP[u] * dp[s-u])
						}
					}
					next[s] = acc
				}
				dp, next = next, dp
			}
			if dp[rem] != 0 {
				out[l] += float64(wl * dp[rem])
			}
		}
	}
}
