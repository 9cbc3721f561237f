package core

import (
	"slices"

	"repro/internal/segtree"
)

// hypTape is a hypothesis tape: one plain scan of an engine under its pins
// (Engine.scan with the tape), recorded so that every hypothesis scan of
// that pin state — HypothesisCounts of any row — can replay it instead of
// walking every label's tree again. CPClean asks for the hypotheses of many
// rows against one validation point under one pin state, and by purity
// (segtree package doc) every label tree but the hypothesis row's own holds
// the same bits in all of those scans as in the plain one; only the row's
// own label tree differs, by the row's leaf.
//
// The tape starts at the first position where any hypothesis scan can do
// tree work: the plain scan's zeroRows ≤ K after the position's increment,
// one more zero row than the plain scan's own K−1, because a hypothesis row
// with α = 0 does not count in its scan's zeroRows. From there it records
// every position — the boundary row's evaluated index, candidate, label,
// leaf slot, α and M_eff, the label's probe and its root after the update —
// and it snapshots every label tree twice: at the start, after the first
// position's increment, and at the plain transition (zeroRows ≤ K−1), after
// that position's update.
type hypTape struct {
	// e and gen identify the engine state the tape was recorded for (the
	// Scratch's K is fixed). e is nil for no tape; ScratchPool.Put clears
	// it, so a pooled Scratch keeps no engine alive.
	e   *Engine
	gen uint64
	pos []tapePos
	// probes and posts hold K+1 coefficients per position: the position's
	// label root with the row forced onto the boundary, and that root after
	// the row's leaf update.
	probes, posts []float64
	// start and trans hold one tree per label at the start and at the plain
	// transition pos[transAt]. A transition at the first position shares
	// the start trees. Every recorded tape has both: each row with α = 0
	// has a kept candidate still to scan (an uncertain one keeps all of
	// them, a pinned one its pin), so zeroRows ends at 0 ≤ K−1.
	start, trans []*segtree.Tree
	transAt      int
	// startZero lists the live rows with α = 0 at the start, at most K.
	startZero []int32
}

// tapePos is one recorded scan position.
type tapePos struct {
	ev, cand, label, slot, alpha, mEff int32
}

// reset empties the tape for a recording of e's current pin state.
func (t *hypTape) reset(e *Engine, k int) {
	t.e, t.gen = e, e.pinGen
	t.pos, t.probes, t.posts = t.pos[:0], t.probes[:0], t.posts[:0]
	t.startZero = t.startZero[:0]
	t.transAt = -1
	for len(t.start) < e.numLabels {
		t.start = append(t.start, segtree.NewTree(k))
		t.trans = append(t.trans, segtree.NewTree(k))
	}
}

// snapStart snapshots the freshly built trees as the tape's start and
// lists the live rows with α = 0 there.
func (t *hypTape) snapStart(e *Engine, sc *Scratch) {
	for l, tr := range sc.trees {
		t.start[l].CopyFrom(tr)
	}
	for _, ev := range e.live {
		if sc.alpha[ev] == 0 {
			t.startZero = append(t.startZero, ev)
		}
	}
}

// record appends position p, whose leaf update and probe the scan has just
// made, with zeroRows after its increment, and snapshots the trees at the
// plain transition.
func (t *hypTape) record(sc *Scratch, p tapePos, zeroRows int) {
	t.pos = append(t.pos, p)
	t.probes = append(t.probes, sc.probe...)
	t.posts = append(t.posts, sc.trees[p.label].Root()...)
	if t.transAt < 0 && zeroRows <= sc.k-1 {
		t.transAt = len(t.pos) - 1
		if t.transAt > 0 {
			for l, tr := range sc.trees {
				t.trans[l].CopyFrom(tr)
			}
		}
	}
}

// approxBytes is the tape's footprint: positions, probes and roots, and
// both snapshots.
func (t *hypTape) approxBytes() int64 {
	const posBytes = 6 * 4
	b := int64(cap(t.pos))*posBytes + int64(cap(t.probes)+cap(t.posts))*8 + int64(cap(t.startZero))*4
	for l := range t.start {
		b += t.start[l].ApproxBytes() + t.trans[l].ApproxBytes()
	}
	return b
}

// tapeFor returns sc's tape for e's current pin state, recording it first
// unless sc holds one for the same engine and pin generation.
func (sc *Scratch) tapeFor(e *Engine) *hypTape {
	t := &sc.tape
	if t.e != e || t.gen != e.pinGen {
		t.reset(e, sc.k)
		e.scan(sc, e.pinsFor(-1, -1), false, t)
	}
	return t
}

// ensureHyp sizes the per-pin HypothesisCounts buffers.
func (sc *Scratch) ensureHyp(m, numLabels int) {
	for len(sc.snapPre) < m {
		sc.snapPre = append(sc.snapPre, make([]float64, numLabels))
		sc.snapPost = append(sc.snapPost, make([]float64, numLabels))
		sc.own = append(sc.own, make([]float64, numLabels))
		sc.hyp = append(sc.hyp, make([]float64, numLabels))
	}
}

// HypothesisCounts answers, for *every* candidate j of the given row, the Q2
// query under the hypothetical cleaning "pin row to j" — the inner loop of
// CPClean's expected-entropy computation (Eq. 4) — in a single combined scan
// instead of M separate ones.
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
// The scan is a replay of sc's hypothesis tape for the engine's pin state
// (hypTape), recorded first if sc holds none for it. Only the row's own
// label tree is walked: it is copied from a tape snapshot, the row's leaf
// set to [1,0], and updated at that label's other positions. Every other
// label's tree holds the row-free bits of the plain scan — the same leaves,
// so by purity the same nodes — and its probe and root are read off the
// tape. Which snapshot: the row's scan leaves its own α out of zeroRows, so
// its tree work starts at zeroRows ≤ K−1 counted without it. A row with α =
// 0 at the tape's start is one zero row fewer than the plain count until
// its first candidate, and that count is ≤ K−1 from the start on (the
// zero-row offset the tape starts by); so it replays from the start
// snapshot. Any other row counts as the plain scan does and replays from
// the transition snapshot. Either way every position from the snapshot on
// does tree work.
//
// The returned slice holds M normalized distributions (aliasing sc buffers;
// valid until the next call).
func (e *Engine) HypothesisCounts(sc *Scratch, row int) [][]float64 {
	if e.Pin(row) >= 0 {
		panic("core: HypothesisCounts on a pinned row")
	}
	e.mustFit(sc)
	t := sc.tapeFor(e)
	m := e.inst.M(row)
	sc.ensureHyp(m, e.numLabels)
	clear(sc.cumPre)
	clear(sc.cumPost)
	// A pin of a candidate before the row's first position with tree work
	// sits in the zero prefix: zero snapshots and a zero own term. The
	// replay fills in the others.
	for j := 0; j < m; j++ {
		clear(sc.snapPre[j])
		clear(sc.snapPost[j])
		clear(sc.own[j])
	}
	e.replay(sc, t, row)
	// Assemble the per-pin distributions.
	for j := 0; j < m; j++ {
		out := sc.hyp[j]
		for y := 0; y < e.numLabels; y++ {
			out[y] = sc.snapPre[j][y] + (sc.cumPost[y] - sc.snapPost[j][y]) + sc.own[j][y]
		}
	}
	return sc.hyp[:m]
}

// replay runs row's hypothesis scan off tape t into sc's prefix sums,
// snapshots and own terms (see HypothesisCounts): each position adds its
// supports with the row after the boundary into sc.cumPost and with it
// before (the shifted root) into sc.cumPre in one tallyHypothesis pass, and
// each of the row's own candidates j snapshots both sums and adds its own
// boundary term (tallyPre) into sc.own[j].
func (e *Engine) replay(sc *Scratch, t *hypTape, row int) {
	lHyp := e.inst.Label(row)
	hypEv := e.liveIndex(row)
	from, snap := t.transAt, t.trans
	if from == 0 || hypEv >= 0 && slices.Contains(t.startZero, int32(hypEv)) {
		from, snap = 0, t.start
	}
	hyp := sc.trees[lHyp]
	hyp.CopyFrom(snap[lHyp])
	if hypEv >= 0 {
		hyp.SetLeafProbe(int(e.slot[hypEv]), 1, 0, 1, 0, sc.probe)
	}
	for l, tr := range snap {
		sc.roots[l] = tr.Root()
	}
	root := hyp.Root()
	sc.roots[lHyp] = root
	w := sc.k + 1
	for p := from; p < len(t.pos); p++ {
		tp := &t.pos[p]
		switch {
		case int(tp.ev) == hypEv:
			j := tp.cand
			copy(sc.snapPre[j], sc.cumPre)
			copy(sc.snapPost[j], sc.cumPost)
			sc.tallyPre(lHyp, sc.own[j])
		case int(tp.label) == lHyp:
			a := float64(tp.alpha) / float64(tp.mEff)
			hyp.SetLeafProbe(int(tp.slot), 0, 1/float64(tp.mEff), a, 1-a, sc.probe)
			sc.roots[lHyp] = sc.probe
			tallyHypothesis(sc, lHyp)
			sc.roots[lHyp] = root
		default:
			sc.roots[tp.label] = t.probes[p*w : p*w+w]
			tallyHypothesis(sc, lHyp)
			sc.roots[tp.label] = t.posts[p*w : p*w+w]
		}
	}
}
