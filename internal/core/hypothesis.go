package core

import (
	"fmt"

	"repro/internal/segtree"
)

// hypRow is one hypothesis row's state in a group pass (HypothesisGroup).
// The fields every position reads come first, to share cache lines.
type hypRow struct {
	label int
	// ev is the row's evaluated index when it is live, −1 otherwise, and
	// rank its leaf's dense index.
	ev     int
	rank   int32
	active bool
	// root is the row's label tree's root in the row's scan: path's top,
	// or the plain root. cumPre and cumPost are the running prefix sums.
	root            []float64
	cumPre, cumPost []float64
	// path is the row's own-label chain with its leaf held at [1,0]: the
	// nodes of its label tree in its hypothesis scan, where they differ
	// from the plain tree's. A row that is not live has no leaf; its label
	// tree is the plain tree, and path is unused.
	path segtree.Path
	// buf holds cumPre and cumPost, then for each of the row's m
	// candidates j its snapshots of both sums and its own term (cand); the
	// pass assembles candidate j's distribution into its own term.
	m   int
	buf []float64
}

// reset sizes and zeroes r's sums for a row with m candidates.
func (r *hypRow) reset(m, numLabels int) {
	need := (2 + 3*m) * numLabels
	if cap(r.buf) < need {
		r.buf = make([]float64, need)
	}
	r.m, r.buf = m, r.buf[:need]
	clear(r.buf)
	r.cumPre, r.cumPost = r.buf[:numLabels:numLabels], r.buf[numLabels:2*numLabels:2*numLabels]
}

// cand returns candidate j's snapshots of cumPre and cumPost and its own
// term.
func (r *hypRow) cand(j int) (snapPre, snapPost, own []float64) {
	l := len(r.cumPre)
	b := r.buf[(2+3*j)*l:]
	return b[:l:l], b[l : 2*l : 2*l], b[2*l : 3*l : 3*l]
}

// HypothesisCounts answers, for *every* candidate j of the given row, the Q2
// query under the hypothetical cleaning "pin row to j" — the inner loop of
// CPClean's expected-entropy computation (Eq. 4) — in a single combined scan
// instead of M separate ones: HypothesisGroup of the one row.
//
// Key observation: across the M pinned worlds, only two things vary —
//
//  1. when another candidate (n, m) is the boundary, row `row`'s chosen value
//     is either still unscanned (more similar ⇒ row occupies a top-K slot;
//     its DP leaf is [0,1] — the *pre* state) or already scanned (less
//     similar ⇒ leaf [1,0] — the *post* state), determined solely by whether
//     (n, m) precedes candidate (row, j) in the scan order; and
//  2. row `row`'s own boundary term, which for pin j is the support of
//     candidate (row, j) with the row forced onto the boundary.
//
// So one scan keeps the row's leaf in the post state [1,0] (α = M) and
// reads the pre state's root for the row's label as the post root shifted
// up one degree, [0, post[0..K−1]] — exact in the tree arithmetic (see the
// segtree package doc), so no second tree is kept. It accumulates *both*
// supports per scanned candidate into running prefix sums, snapshots the
// prefixes at each (row, j), and assembles
//
//	Q2_j = cumPre(before j) + [cumPost(total) − cumPost(before j)] + own_j.
//
// The returned slice holds M normalized distributions (aliasing sc buffers;
// valid until the next call).
func (e *Engine) HypothesisCounts(sc *Scratch, row int) [][]float64 {
	sc.oneRow[0] = row
	e.hypothesisPass(sc, sc.oneRow[:])
	return sc.dists(0)
}

// HypothesisGroup answers HypothesisCounts for each of rows — distinct,
// unpinned — in one pass over the engine's scan positions, then calls
// yield(g, dists) for each row rows[g] in order with its M distributions
// (aliasing sc buffers; valid during the call). Every bit equals the row's
// own hypothesis scan's.
//
// The pass is the plain scan of the engine's pin state, from one zero row
// earlier (a row with α = 0 does not count in its own hypothesis scan's
// zeroRows), walking each position's plain tree path once
// (segtree.Tree.SetLeafWalk). By purity (segtree package doc) a row's
// hypothesis scan differs from it only in its own label tree, and there
// only on the row's own leaf path: every other label's root and probe are
// the plain scan's, read off the walk. So each row keeps just its own-label
// chain with its leaf at [1,0] (segtree.Path), built when the row starts,
// and at a position of its label brings it up to date from the LCA of its
// leaf and the position's leaf (segtree.Tree.Rejoin), the nodes below the
// LCA being the plain tree's own. A row that is not live has no leaf, and
// its label tree is the plain tree.
//
// Each row starts where its own scan's tree work starts: its scan leaves
// its α out of zeroRows, so that is zeroRows ≤ K−1 counted without it. A
// row with α = 0 at the pass's first position with tree work is one zero
// row fewer than the plain count until its first candidate, and that count
// is ≤ K−1 from there on (the zero-row offset the pass starts by); so it
// starts there. Any other row counts as the plain scan does and starts at
// the plain transition, zeroRows ≤ K−1. Either way every position from its
// start on does tree work; a pin of a candidate before it sits in the zero
// prefix, with zero snapshots and a zero own term.
func (e *Engine) HypothesisGroup(sc *Scratch, rows []int, yield func(g int, dists [][]float64)) {
	e.hypothesisPass(sc, rows)
	for g := range rows {
		yield(g, sc.dists(g))
	}
}

// hypothesisPass runs the group pass over rows and assembles each row's
// distributions (see HypothesisGroup).
func (e *Engine) hypothesisPass(sc *Scratch, rows []int) {
	e.mustFit(sc)
	g := sc.startGroup(e, rows)
	e.groupPass(sc, g)
	for gi := range g {
		r := &g[gi]
		for j := 0; j < r.m; j++ {
			snapPre, snapPost, own := r.cand(j)
			for y := range own {
				own[y] = snapPre[y] + (r.cumPost[y] - snapPost[y]) + own[y]
			}
		}
		if r.ev >= 0 {
			sc.groupAt[r.ev] = 0
		}
	}
}

// dists returns the last pass's row g's M distributions, as views in
// sc.views.
func (sc *Scratch) dists(g int) [][]float64 {
	r := &sc.group[g]
	sc.views = sc.views[:0]
	for j := 0; j < r.m; j++ {
		_, _, own := r.cand(j)
		sc.views = append(sc.views, own)
	}
	return sc.views
}

// startGroup readies sc's row states for a pass over rows and marks the
// live ones' evaluated indices in sc.groupAt.
func (sc *Scratch) startGroup(e *Engine, rows []int) []hypRow {
	for len(sc.group) < len(rows) {
		sc.group = append(sc.group, hypRow{})
	}
	g := sc.group[:len(rows)]
	for gi, row := range rows {
		if e.Pin(row) >= 0 {
			panic("core: HypothesisCounts on a pinned row")
		}
		r := &g[gi]
		r.label, r.ev, r.active = e.inst.Label(row), e.liveIndex(row), false
		r.reset(e.inst.M(row), e.numLabels)
		if r.ev >= 0 {
			r.rank = e.inst.facts[row].Rank
			if sc.groupAt[r.ev] != 0 {
				panic(fmt.Sprintf("core: row %d twice in a hypothesis group", row))
			}
			sc.groupAt[r.ev] = int32(gi + 1)
		}
	}
	return g
}

// groupPass runs the hypothesis group pass (see HypothesisGroup) into the
// rows' prefix sums, snapshots and own terms: at each position every
// started row adds its supports with the row after the boundary into
// cumPost and with it before (the shifted root) into cumPre in one
// tallyHypothesis pass, and at each of its own candidates j snapshots both
// sums and adds its own boundary term (tallyPre) into own[j].
func (e *Engine) groupPass(sc *Scratch, g []hypRow) {
	inst := e.inst
	rows, facts := inst.rows, inst.facts
	slot := e.slot
	alpha, roots := sc.alpha, sc.roots
	k := sc.k
	pins := e.pinsFor(-1, -1)
	zeroRows := e.seedAlpha(alpha, pins)
	walk := &sc.walk
	active := sc.active[:0]
	two3 := k == 3 && len(roots) == 2
	built := false
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
		if zeroRows > k {
			continue
		}
		start := !built
		if start {
			e.buildLeaves(sc, pins)
			built = true
		}
		f := facts[i]
		mEff := f.M
		if ch >= 0 {
			mEff = 1
		}
		a := float64(alpha[ev]) / float64(mEff)
		ls := int(f.Label)
		tr := sc.trees[ls]
		tr.SetLeafWalk(int(slot[ev]), 0, 1/float64(mEff), a, 1-a, walk)
		if len(active) < len(g) && (start || zeroRows <= k-1) {
			for gi := range g {
				r := &g[gi]
				if !r.active && (zeroRows <= k-1 || r.ev >= 0 && alpha[r.ev] == 0) {
					r.root = roots[r.label]
					if r.ev >= 0 {
						sc.trees[r.label].LeafPath(int(slot[r.ev]), 1, 0, &r.path)
						r.root = r.path.Top()
					}
					r.active = true
					active = append(active, int32(gi))
				}
			}
		}
		probe, plain := walk.Top(), roots[ls]
		roots[ls] = probe
		owner := int(sc.groupAt[ev]) - 1 // the group row this position scans
		for _, gi := range active {
			r := &g[gi]
			lr := r.label
			root := r.root
			switch {
			case lr != ls: // another label's position: the row's own root
			case int(gi) == owner:
				snapPre, snapPost, own := r.cand(int(ref.cand))
				copy(snapPre, r.cumPre)
				copy(snapPost, r.cumPost)
				roots[lr] = root
				sc.tallyPre(lr, own)
				roots[lr] = probe
				continue
			case r.ev >= 0:
				tr.Rejoin(&r.path, walk, segtree.LCALevel(r.rank, f.Rank), sc.probe)
				root = sc.probe
			default:
				root = probe
			}
			// The row's label tree's root is root; every other label's is
			// in roots, the walked label's pointing at the probe.
			switch {
			case two3 && lr == 0:
				tallyHypothesis2x3(root, roots[1], 0, r.cumPost, r.cumPre)
			case two3:
				tallyHypothesis2x3(roots[0], root, 1, r.cumPost, r.cumPre)
			default:
				saved := roots[lr]
				roots[lr] = root
				tallyHypothesis(sc, lr, r.cumPost, r.cumPre)
				roots[lr] = saved
			}
		}
		roots[ls] = plain
	}
	sc.active = active
}
