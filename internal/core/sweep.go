package core

// This file holds the SS-DC scan kernel (§3.1.3 + appendix A.2): the one
// ordered walk over the engine's sorted kept candidates (all NM of them
// untruncated), from the seeded α state, that at each scanned candidate
// walks its row's tree path once — setting the row's leaf to its scanned
// state and probing the root with the row forced onto the boundary
// (segtree.Tree.SetLeafProbe) — reads the boundary supports off the
// per-label path-collapsed tree roots, with the probe standing in for the
// row's label, and adds them up. Every Q2 path runs it: Engine.Counts,
// Engine.CountsMC and a Retained memo's full sweep tally into the Scratch's
// counts. The hypothesis group pass (hypothesis.go) is the same walk from
// one zero row earlier, serving a group of hypothesis rows at each
// position: each row recomputes only its own-label nodes from the LCA of
// its leaf and the walked one up, and tallies the pre/post prefix sums in
// one pass per position (the row's pre-state root is the post root shifted
// one degree), until its last candidate is scanned; from then on it adds
// the plain post products every finished row shares (postProducts).

// scan walks every kept scan position with real tree work under the given
// pins (the engine's, with an optional per-query override), from the α
// state seedAlpha derives, and adds each position's supports into
// sc.counts; useMC selects the appendix-A.3 winner-cap accumulator instead
// of tally enumeration. The trees are bulk-built at the first position
// whose boundary support is not provably zero. Returns the number of
// positions that performed tree work.
func (e *Engine) scan(sc *Scratch, pins pinView, useMC bool) int64 {
	inst := e.inst
	rows, facts := inst.rows, inst.facts
	slot := e.slot
	alpha := sc.alpha
	k := sc.k
	zeroRows := e.seedAlpha(alpha, pins)
	built := false
	var scanned int64
	for _, ref := range e.order {
		ev := int(ref.row)
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
		// One walk of row i's path sets its leaf to the scanned state
		// [α/M, 1−α/M] and probes the root with the row forced onto the
		// boundary, [0, 1/mEff]: it contributes exactly one top-K slot,
		// with probability 1/mEff of picking this candidate. The supports
		// are read with the label's root pointed at the probe.
		sc.trees[f.Label].SetLeafProbe(int(slot[ev]), 0, 1/float64(mEff), a, 1-a, sc.probe)
		scanned++
		root := sc.roots[f.Label]
		sc.roots[f.Label] = sc.probe
		if useMC {
			e.mcSupports(sc, sc.counts)
		} else {
			tallySupports(sc, sc.counts)
		}
		sc.roots[f.Label] = root
	}
	return scanned
}

// tallyPre is tallySupports against the pre-state roots of a hypothesis
// scan: label l's root is its post root shifted up one degree, the root
// with the hypothesis row's leaf [0,1] instead of [1,0], bit for bit
// (segtree package doc, "Tree arithmetic"). sc.roots[l] views the shifted
// copy for the tally only. It serves the hypothesis row's own candidates,
// which tally the pre state alone; every other position tallies both states
// in one tallyHypothesis pass.
func (sc *Scratch) tallyPre(l int, out []float64) {
	post := sc.roots[l]
	sc.shifted[0] = 0
	copy(sc.shifted[1:], post[:sc.k])
	sc.roots[l] = sc.shifted
	tallySupports(sc, out)
	sc.roots[l] = post
}

// tallyHypothesis is one pass of tallySupports for a hypothesis scan
// position: each tally's product against the post roots sc.roots goes into
// post, and its product against the pre roots — label lHyp's shifted one
// degree, so tally c reads roots[lHyp][c−1], or 0 when c = 0 (see
// tallyPre) — into pre, each under the same nonzero rule and in the
// same tally order as two separate passes. Unlike tallySupports it does not
// stop a product at its first zero factor, which is exact on the tree
// domain: every root coefficient is finite and ≥ +0, and at most 1 up to
// rounding (each leaf's coefficients sum to at most 1, and so do the
// truncated products'), so no product overflows; a product with a +0
// factor is +0 whatever follows, and one without multiplies the same values
// in the same order.
func tallyHypothesis(sc *Scratch, lHyp int, post, pre []float64) {
	roots := sc.roots
	if sc.k == 3 && len(roots) == 2 {
		tallyHypothesis2x3(roots[0], roots[1], lHyp, post, pre)
		return
	}
	for ti, g := range sc.tallies {
		prodPost, prodPre := 1.0, 1.0
		for l, c := range g {
			v := roots[l][c]
			prodPost *= v
			switch {
			case l != lHyp:
				prodPre *= v
			case c == 0:
				prodPre = 0
			default:
				prodPre *= roots[l][c-1]
			}
		}
		if prodPost != 0 {
			post[sc.winners[ti]] += prodPost
		}
		if prodPre != 0 {
			pre[sc.winners[ti]] += prodPre
		}
	}
}

// support is one nonzero tally product and the label its tally wins.
type support struct {
	winner int
	prod   float64
}

// postProducts lists in sc.posts the nonzero products of tallyHypothesis's
// post pass against sc.roots, in tally order: the supports a hypothesis row
// whose label tree is the plain tree adds into its post sum, the same
// products in the same order as its own pass would add.
func (sc *Scratch) postProducts() {
	roots := sc.roots
	sc.posts = sc.posts[:0]
	for ti, g := range sc.tallies {
		prod := 1.0
		for l, c := range g {
			prod *= roots[l][c]
		}
		if prod != 0 {
			sc.posts = append(sc.posts, support{sc.winners[ti], prod})
		}
	}
}

// tallyHypothesis2x3 is tallyHypothesis for two labels and K = 3 with the
// roots and sums in registers: the tallies (0,3), (1,2), (2,1), (3,0) in
// compositions' order, won by labels 1, 1, 0, 0, each product 1·x·y = x·y
// (rounded before it is added, so it is never fused) added in the same
// order. It adds zero products too, which changes no bit: a product is +0
// or positive, every sum starts at +0 and only grows, and s + (+0) = s for
// s ≥ +0 — so it skips exactly what the nonzero rule would, without a
// branch per product.
func tallyHypothesis2x3(x, y []float64, lHyp int, post, pre []float64) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	p0, p1 := post[0], post[1]
	p1 += float64(x0 * y3)
	p1 += float64(x1 * y2)
	p0 += float64(x2 * y1)
	p0 += float64(x3 * y0)
	post[0], post[1] = p0, p1
	// With label lHyp's root shifted one degree, the tally giving lHyp
	// none has product 0 and adds nothing; the other three read x0·y2,
	// x1·y1 and x2·y0, the middle one from tally (2,1) or (1,2), which
	// lHyp wins.
	q0, q1 := pre[0], pre[1]
	q1 += float64(x0 * y2)
	if lHyp == 0 {
		q0 += float64(x1 * y1)
	} else {
		q1 += float64(x1 * y1)
	}
	q0 += float64(x2 * y0)
	pre[0], pre[1] = q0, q1
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
