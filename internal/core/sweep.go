package core

// This file holds the SS-DC scan kernel (§3.1.3 + appendix A.2): the one
// ordered walk over the engine's sorted kept candidates (all NM of them
// untruncated), from the seeded α state, that forces each scanned
// candidate's row onto the boundary, reads the boundary supports off the
// per-label path-collapsed tree roots, adds them up, and restores the row's
// leaf. Every Q2 path runs it — Engine.Counts, Engine.CountsMC and a
// Retained memo's full sweep into the Scratch's counts, and
// HypothesisCounts, with a hypothesis row, into the pre/post prefix sums
// (the row's pre-state root is the post root shifted one degree).

// scan walks every kept scan position with real tree work under the given
// pins (the engine's, with an optional per-query override), from the α
// state seedAlpha derives. With hypRow = −1 it adds each position's
// supports into sc.counts; useMC selects the appendix-A.3 winner-cap
// accumulator instead of tally enumeration. With an unpinned hypRow ≥ 0 it
// is HypothesisCounts' walk: the row's leaf stays [1,0] (α = M) throughout,
// each position adds its supports with the row after the boundary into
// sc.cumPost and with it before the boundary (the shifted root) into
// sc.cumPre, and each of the row's own candidates j snapshots both sums and
// adds its own boundary term into sc.own[j]. A hypothesis row without kept
// candidates (absent ones included) has no scan position and an α that is
// never 0, so only its label is read. The trees are bulk-built at the first
// position whose boundary support is not provably zero. Returns the number
// of positions that performed tree work.
func (e *Engine) scan(sc *Scratch, pins pinView, useMC bool, hypRow int) int64 {
	inst := e.inst
	rows, facts := inst.rows, inst.facts
	slot := e.slot
	alpha := sc.alpha
	k := sc.k
	zeroRows := e.seedAlpha(alpha, pins)
	hypEv, lHyp := -1, -1
	if hypRow >= 0 {
		// The hypothesis row's α = M makes its leaf [1,0], and takes it
		// out of zeroRows, which then counts the other rows with α = 0.
		lHyp = inst.Label(hypRow)
		if hypEv = e.liveIndex(hypRow); hypEv >= 0 {
			if alpha[hypEv] == 0 {
				zeroRows--
			}
			alpha[hypEv] = int32(inst.M(hypRow))
		}
	}
	built := false
	var scanned int64
	for _, ref := range e.order {
		ev := int(ref.row)
		if ev == hypEv {
			// Snapshot the prefix sums for pin j and compute its own
			// boundary term: the row forced onto the boundary, a pinned
			// row's leaf [0, 1/1], is the pre state.
			j := ref.cand
			copy(sc.snapPre[j], sc.cumPre)
			copy(sc.snapPost[j], sc.cumPost)
			if zeroRows <= k-1 {
				if !built {
					e.buildLeaves(sc, pins)
					built = true
				}
				sc.tallyPre(lHyp, sc.own[j])
			}
			continue
		}
		i := rows[ev]
		ch := pins.at(i)
		if ch >= 0 && ref.cand != ch {
			continue // candidate eliminated by cleaning
		}
		alpha[ev]++
		if alpha[ev] == 1 {
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
		f := facts[i]
		mEff := f.M
		if ch >= 0 {
			mEff = 1
		}
		a := float64(alpha[ev]) / float64(mEff)
		tr := sc.trees[f.Label]
		p := int(slot[ev])
		// Force row i onto the boundary: it contributes exactly one top-K
		// slot, with probability 1/mEff of picking this candidate. Read the
		// supports, then restore the leaf to its scanned state [α/M, 1−α/M].
		tr.SetLeaf(p, 0, 1/float64(mEff))
		switch {
		case hypRow >= 0:
			tallySupports(sc, sc.cumPost)
			sc.tallyPre(lHyp, sc.cumPre)
		case useMC:
			e.mcSupports(sc, sc.counts)
		default:
			tallySupports(sc, sc.counts)
		}
		tr.SetLeaf(p, a, 1-a)
		scanned++
	}
	return scanned
}

// tallyPre is tallySupports against the pre-state roots of a hypothesis
// scan: label l's root is its post root shifted up one degree, the root
// with the hypothesis row's leaf [0,1] instead of [1,0], bit for bit
// (segtree package doc, "Tree arithmetic"). sc.roots[l] views the shifted
// copy for the tally only.
func (sc *Scratch) tallyPre(l int, out []float64) {
	post := sc.roots[l]
	sc.shifted[0] = 0
	copy(sc.shifted[1:], post[:sc.k])
	sc.roots[l] = sc.shifted
	tallySupports(sc, out)
	sc.roots[l] = post
}

// tallySupports enumerates every label tally against the per-label root
// polynomials sc.roots (Algorithm 1, lines 9-12), adding each nonzero
// support to out[winner].
func tallySupports(sc *Scratch, out []float64) {
	roots := sc.roots
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
		rootL := sc.roots[l]
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
				rootP := sc.roots[lp]
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
