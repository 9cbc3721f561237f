package core

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/segtree"
)

// Engine answers CP queries for one (incomplete dataset, test point) pair.
// It pre-sorts the candidate similarities once — only those that can reach
// a top-K boundary, for a truncated engine — and then supports repeated
// Q1/Q2 evaluation under different cleaning states:
//
//   - persistent pins (SetPin) model rows that have been cleaned to a known
//     value, shrinking their candidate set to one;
//   - a per-query override models CPClean's hypothetical "what if we cleaned
//     row i to candidate j" without mutating the engine, so hypotheses can be
//     evaluated from many goroutines sharing one engine (each goroutine owns
//     its own Scratch).
//
// Q2 uses the SS-DC algorithm (§3.1.3 + appendix A.2): a segment tree per
// label maintains the boundary-set DP under one leaf update per scanned
// candidate, giving O(NM·(log NM + K²·log N)) per query. Q1 uses MM (§3.2).
type Engine struct {
	inst      *Instance
	numLabels int
	// order holds the candidates at or above the truncation threshold T,
	// ascending in similarity. A candidate below T (the (K+1)-th most
	// similar row minimum, for the K the engine was built for) can never sit
	// on a top-K boundary under any pins, so a scan of it would only add 1
	// to its row's α: below[i] counts row i's candidates below T, and every
	// scan starts from that α (seedAlpha) instead of from position 0. An
	// untruncated engine has T = −∞, below all zero and every candidate in
	// order.
	order []candRef
	t     threshold
	below []int32
	maxK  int // largest K the truncation is sound for
	// argMin/argMax are each row's least and most similar candidate under
	// the total order, over all its candidates (MM, RelevantRows).
	argMin, argMax []int32
	pins           []int32 // pins[i] = candidate index row i is cleaned to, or -1
	pinGen         uint64  // bumped on every pin mutation (SetPin, ResetPins)
	labelOf        []int
	rowPos         []int // leaf index of each row inside its label's tree
	labelLen       []int // rows per label
	// liveRows[l] lists, in ascending rowPos, label l's rows with kept
	// candidates, and liveLeaves[l] their rowPos. Every other row's leaf is
	// exactly [1,0] at any position that does tree work — α = below[i] =
	// M_i, or the row is pinned to a candidate below T (α = 1, M_eff = 1) —
	// so buildLeaves sets only these leaves (segtree.ResetLeaves). An
	// untruncated engine lists every row.
	liveRows, liveLeaves [][]int32
}

// NewEngine builds an untruncated engine for incomplete dataset d and test
// point t under the given kernel: it answers queries for any K, and is the
// reference the truncated engines are tested against.
func NewEngine(d *dataset.Incomplete, kernel knn.Kernel, t []float64) *Engine {
	return NewEngineFromInstance(InstanceFor(d, kernel, t))
}

// NewEngineFromInstance builds an untruncated engine from a precomputed
// similarity view.
func NewEngineFromInstance(inst *Instance) *Engine {
	return NewTruncatedEngineFromInstance(inst, 0)
}

// NewTruncatedEngine builds an engine for incomplete dataset d and test
// point t that answers queries with at most k neighbors. It sorts, stores
// and scans only the candidates that can reach a top-k boundary; every
// answer is bit-identical to NewEngine's. With k < 1 or N ≤ k it is
// NewEngine.
func NewTruncatedEngine(d *dataset.Incomplete, kernel knn.Kernel, t []float64, k int) *Engine {
	return NewTruncatedEngineFromInstance(InstanceFor(d, kernel, t), k)
}

// NewTruncatedEngineFromInstance is NewTruncatedEngine over a precomputed
// similarity view.
func NewTruncatedEngineFromInstance(inst *Instance, k int) *Engine {
	n := inst.N()
	v := inst.scanView(k)
	e := &Engine{
		inst:      inst,
		numLabels: inst.NumLabels,
		order:     v.order,
		t:         v.t,
		below:     v.below,
		maxK:      math.MaxInt,
		argMin:    v.argMin,
		argMax:    v.argMax,
		pins:      make([]int32, n),
		labelOf:   make([]int, n),
		rowPos:    make([]int, n),
		labelLen:  make([]int, inst.NumLabels),
	}
	if v.t != noThreshold {
		e.maxK = k
	}
	for i := 0; i < n; i++ {
		e.pins[i] = -1
		l := inst.Labels[i]
		e.labelOf[i] = l
		e.rowPos[i] = e.labelLen[l]
		e.labelLen[l]++
	}
	e.liveRows = make([][]int32, inst.NumLabels)
	e.liveLeaves = make([][]int32, inst.NumLabels)
	for i := 0; i < n; i++ {
		if e.hasKept(i) {
			l := e.labelOf[i]
			e.liveRows[l] = append(e.liveRows[l], int32(i))
			e.liveLeaves[l] = append(e.liveLeaves[l], int32(e.rowPos[i]))
		}
	}
	return e
}

// validateK rejects a K out of range for the instance or larger than the
// one the engine was truncated for.
func (e *Engine) validateK(k int) error {
	if err := validateK(e.inst, k); err != nil {
		return err
	}
	if k > e.maxK {
		return fmt.Errorf("core: K=%d exceeds the K=%d the engine was truncated for", k, e.maxK)
	}
	return nil
}

// mustFit panics when sc was allocated for a larger K than the engine's
// truncation allows — a Scratch shared across engines built for different
// K, which only a caller bug can produce.
func (e *Engine) mustFit(sc *Scratch) {
	if sc.k > e.maxK {
		panic(fmt.Sprintf("core: K=%d scratch on an engine truncated for K=%d", sc.k, e.maxK))
	}
}

// seedAlpha writes into alpha the α state a scan of every candidate below T
// leaves under pins — below[i] for an uncertain row; 1 or 0 for a pinned
// row, as its chosen candidate lies below T or not — and returns the number
// of rows with α = 0. No position below T does tree work (at least K+1 rows
// still have α = 0 there), so a scan of order from this state equals a scan
// of every candidate from zero, bit for bit.
func (e *Engine) seedAlpha(alpha, pins []int32) int {
	zero := 0
	for i, b := range e.below {
		if ch := pins[i]; ch >= 0 && b > 0 {
			b = 0
			if e.t.below(simKey(e.inst.Sims[i][ch]), int32(i), ch) {
				b = 1
			}
		}
		alpha[i] = b
		if b == 0 {
			zero++
		}
	}
	return zero
}

// hasKept reports whether any of row's candidates lies in the kept order
// (at or above T).
func (e *Engine) hasKept(row int) bool {
	return int(e.below[row]) < e.inst.M(row)
}

// Fork returns an engine over e's read-only view (similarities, scan order,
// row layout) with its own copy of e's pins, at e's pin generation. Pinning
// the fork never touches e, so one cached view can back any number of
// independently pinned engines. Like SetPin, not safe to call concurrently
// with pin mutations of e.
func (e *Engine) Fork() *Engine {
	f := *e
	f.pins = append([]int32(nil), e.pins...)
	return &f
}

// Instance returns the similarity view the engine answers queries over.
func (e *Engine) Instance() *Instance { return e.inst }

// N returns the number of training examples.
func (e *Engine) N() int { return e.inst.N() }

// SetPin permanently fixes row to its cand-th candidate (cleaning); cand = -1
// clears the pin. Not safe to call concurrently with queries.
func (e *Engine) SetPin(row, cand int) {
	if cand >= 0 && cand >= e.inst.M(row) {
		panic(fmt.Sprintf("core: pin candidate %d out of range for row %d (M=%d)", cand, row, e.inst.M(row)))
	}
	e.pins[row] = int32(cand)
	e.pinGen++
}

// Pin returns the pinned candidate of row, or -1.
func (e *Engine) Pin(row int) int { return int(e.pins[row]) }

// PinGeneration returns a counter bumped by every pin mutation (SetPin,
// ResetPins). Caches keyed on an engine's cleaning state — the selection
// memo and Retained — compare generations to detect that the engine was
// pinned out from under them.
func (e *Engine) PinGeneration() uint64 { return e.pinGen }

// PinnedCount returns the number of pinned rows.
func (e *Engine) PinnedCount() int {
	n := 0
	for _, p := range e.pins {
		if p >= 0 {
			n++
		}
	}
	return n
}

// WorldCount returns the number of possible worlds remaining under the pins.
func (e *Engine) WorldCount() *big.Int {
	total := big.NewInt(1)
	for i := 0; i < e.N(); i++ {
		if e.pins[i] < 0 {
			total.Mul(total, big.NewInt(int64(e.inst.M(i))))
		}
	}
	return total
}

// Scratch holds per-goroutine query state for an Engine. A Scratch is bound
// to one (engine, K) pair and must not be shared between goroutines. It may
// be reused across engines of identical shape (same N, labels in the same
// order) — CPClean exploits this across validation-point engines.
type Scratch struct {
	k       int
	trees   []*segtree.PolyTree
	alpha   []int32
	pins    []int32     // pin vector with a per-query override (pinsFor)
	leafP0  [][]float64 // per-label bulk leaf staging
	leafP1  [][]float64
	counts  []float64
	tallies [][]int
	winners []int
	// SS-DC-MC winner-cap DP buffers.
	dpA, dpB []float64
	// Cached root views (stable slices into each tree's backing array).
	rootsNormal [][]float64
	// HypothesisCounts state: one alternate (pre-state) tree per label,
	// prefix snapshots and per-pin outputs.
	altTrees []*segtree.PolyTree
	rootsPre [][]float64
	cumPre   []float64
	cumPost  []float64
	snapPre  [][]float64
	snapPost [][]float64
	own      [][]float64
	hyp      [][]float64
}

// scratchShape is the structural signature a Scratch is sized by: the
// per-label row counts. It carries no reference to any engine, so pools can
// hold it without retaining the engine they were seeded from.
type scratchShape struct {
	labelLen []int
}

// shape copies the engine's scratch shape.
func (e *Engine) shape() scratchShape {
	return scratchShape{labelLen: append([]int(nil), e.labelLen...)}
}

// n returns the total row count.
func (sh scratchShape) n() int {
	t := 0
	for _, l := range sh.labelLen {
		t += l
	}
	return t
}

// newScratchFromShape allocates query state for the given shape and K.
func newScratchFromShape(sh scratchShape, k int) *Scratch {
	numLabels := len(sh.labelLen)
	sc := &Scratch{
		k:      k,
		alpha:  make([]int32, sh.n()),
		counts: make([]float64, numLabels),
		dpA:    make([]float64, k+1),
		dpB:    make([]float64, k+1),
	}
	for l := 0; l < numLabels; l++ {
		sc.trees = append(sc.trees, segtree.New(sh.labelLen[l], k))
		sc.altTrees = append(sc.altTrees, segtree.New(sh.labelLen[l], k))
		sc.leafP0 = append(sc.leafP0, make([]float64, sh.labelLen[l]))
		sc.leafP1 = append(sc.leafP1, make([]float64, sh.labelLen[l]))
	}
	sc.rootsNormal = make([][]float64, numLabels)
	sc.rootsPre = make([][]float64, numLabels)
	for l := 0; l < numLabels; l++ {
		sc.rootsNormal[l] = sc.trees[l].Root()
	}
	sc.cumPre = make([]float64, numLabels)
	sc.cumPost = make([]float64, numLabels)
	sc.tallies = compositions(k, numLabels)
	sc.winners = make([]int, len(sc.tallies))
	for ti, g := range sc.tallies {
		sc.winners[ti] = argmaxTally(g)
	}
	return sc
}

// NewScratch allocates query state for queries with the given K.
func (e *Engine) NewScratch(k int) (*Scratch, error) {
	if err := e.validateK(k); err != nil {
		return nil, err
	}
	return newScratchFromShape(e.shape(), k), nil
}

// MustScratch is NewScratch but panics on error.
func (e *Engine) MustScratch(k int) *Scratch {
	sc, err := e.NewScratch(k)
	if err != nil {
		panic(err)
	}
	return sc
}

// chosen returns the forced candidate of row under pins and the per-query
// override, or -1 if the row is uncertain.
func (e *Engine) chosen(row int, overrideRow, overrideCand int) int {
	if row == overrideRow {
		return overrideCand
	}
	return int(e.pins[row])
}

// Counts answers Q2 with SS-DC. overrideRow/overrideCand (-1,-1 for none)
// hypothetically clean one row for the duration of the query. The returned
// slice (owned by sc) holds normalized fractions: out[y] = Q2/|worlds|.
func (e *Engine) Counts(sc *Scratch, overrideRow, overrideCand int) []float64 {
	e.fullScan(sc, overrideRow, overrideCand, false)
	return sc.counts
}

// CountsMC is Counts with the appendix-A.3 multi-class accumulator
// (mcSupports) instead of tally enumeration: polynomial in |Y| rather than
// enumerating all C(K+|Y|−1, K) label tallies.
func (e *Engine) CountsMC(sc *Scratch, overrideRow, overrideCand int) []float64 {
	e.fullScan(sc, overrideRow, overrideCand, true)
	return sc.counts
}

// fullScan clears sc.counts and runs the scan kernel into it under the
// override's pins, returning the number of positions that did tree work.
func (e *Engine) fullScan(sc *Scratch, overrideRow, overrideCand int, useMC bool) int64 {
	e.mustFit(sc)
	pins := e.pinsFor(sc, overrideRow, overrideCand)
	clear(sc.counts)
	return e.scan(sc, pins, useMC)
}

// pinsFor returns the pin vector a query scans under: the engine's own pins,
// or, with a per-query override, a copy in sc with overrideRow pinned to
// overrideCand — the shared engine is never written during a query.
func (e *Engine) pinsFor(sc *Scratch, overrideRow, overrideCand int) []int32 {
	if overrideRow < 0 {
		return e.pins
	}
	if len(sc.pins) != len(e.pins) {
		sc.pins = make([]int32, len(e.pins))
	}
	copy(sc.pins, e.pins)
	sc.pins[overrideRow] = int32(overrideCand)
	return sc.pins
}

// buildLeaves bulk-initializes every label tree from the current α state:
// the leaf of each live row n is [α_n/M_n, 1−α_n/M_n] with M_n = 1 for rows
// pinned in pins, and every other leaf is [1,0] (see liveRows).
func (e *Engine) buildLeaves(sc *Scratch, pins []int32) {
	for l, tr := range sc.trees {
		rows := e.liveRows[l]
		p0, p1 := sc.leafP0[l][:len(rows)], sc.leafP1[l][:len(rows)]
		for j, r := range rows {
			i := int(r)
			mEff := e.inst.M(i)
			if pins[i] >= 0 {
				mEff = 1
			}
			a := float64(sc.alpha[i]) / float64(mEff)
			p0[j], p1[j] = a, 1-a
		}
		tr.ResetLeaves(e.liveLeaves[l], p0, p1)
	}
}

// Entropy returns the Shannon entropy (nats) of the Q2 distribution under
// the given override — the quantity CPClean greedily minimizes (§4, Eq. 3).
func (e *Engine) Entropy(sc *Scratch, overrideRow, overrideCand int) float64 {
	return Entropy(e.Counts(sc, overrideRow, overrideCand))
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
// So one scan maintains two trees for the row's label (pre and post leaf
// state), accumulates *both* supports per scanned candidate into running
// prefix sums, snapshots the prefixes at each (row, j), and assembles
//
//	Q2_j = cumPre(before j) + [cumPost(total) − cumPost(before j)] + own_j.
//
// The returned slice holds M normalized distributions (aliasing sc buffers;
// valid until the next call).
func (e *Engine) HypothesisCounts(sc *Scratch, row int) [][]float64 {
	inst := e.inst
	if e.pins[row] >= 0 {
		panic("core: HypothesisCounts on a pinned row")
	}
	e.mustFit(sc)
	m := inst.M(row)
	lRow := e.labelOf[row]
	posRow := e.rowPos[row]
	sc.ensureHyp(m, e.numLabels)
	// zeroOthers counts rows ≠ row with α = 0; while it exceeds K−1, both
	// the pre and post supports of any boundary candidate are zero, as is
	// the row's own boundary support. The row's own α stays 0: its leaf is
	// set explicitly in each tree.
	zeroOthers := e.seedAlpha(sc.alpha, e.pins)
	if sc.alpha[row] == 0 {
		zeroOthers--
	}
	sc.alpha[row] = 0
	for y := 0; y < e.numLabels; y++ {
		sc.cumPre[y] = 0
		sc.cumPost[y] = 0
	}
	// A pin of a candidate below T sits in the zero prefix: zero snapshots
	// and a zero own term. Kept candidates fill theirs in during the scan.
	for j := 0; j < m; j++ {
		clear(sc.snapPre[j])
		clear(sc.snapPost[j])
		clear(sc.own[j])
	}
	// rootsPre views the alternate tree for the row's label.
	copy(sc.rootsPre, sc.rootsNormal)
	sc.rootsPre[lRow] = sc.altTrees[lRow].Root()
	preTree := sc.altTrees[lRow]
	postTree := sc.trees[lRow]

	built := false
	build := func() {
		e.buildLeaves(sc, e.pins)
		// Mirror the row-label tree into the pre tree, then fix the row's
		// leaf states: post [1,0] (row's value less similar than boundary),
		// pre [0,1] (row forced into the top-K).
		preTree.CopyFrom(postTree)
		postTree.SetLeaf(posRow, 1, 0)
		preTree.SetLeaf(posRow, 0, 1)
		built = true
	}
	for _, ref := range e.order {
		i := int(ref.row)
		j := int(ref.cand)
		if i == row {
			// Snapshot the prefix sums for pin j and compute its own
			// boundary term (row forced onto the boundary ≡ the pre tree,
			// with a pinned row's 1/M_eff = 1).
			copy(sc.snapPre[j], sc.cumPre)
			copy(sc.snapPost[j], sc.cumPost)
			if zeroOthers <= sc.k-1 {
				if !built {
					build()
				}
				tallySupports(sc, sc.rootsPre, sc.own[j])
			}
			continue
		}
		ch := int(e.pins[i])
		if ch >= 0 && j != ch {
			continue
		}
		mEff := inst.M(i)
		if ch >= 0 {
			mEff = 1
		}
		sc.alpha[i]++
		if sc.alpha[i] == 1 {
			zeroOthers--
		}
		if zeroOthers > sc.k-1 {
			continue
		}
		if !built {
			build()
		}
		a := float64(sc.alpha[i]) / float64(mEff)
		l := e.labelOf[i]
		pos := e.rowPos[i]
		force0, force1 := 0.0, 1/float64(mEff)
		// Force row i onto the boundary in its tree(s), accumulate both
		// states, restore.
		sc.trees[l].SetLeaf(pos, force0, force1)
		if l == lRow {
			preTree.SetLeaf(pos, force0, force1)
		}
		tallySupports(sc, sc.rootsNormal, sc.cumPost)
		tallySupports(sc, sc.rootsPre, sc.cumPre)
		sc.trees[l].SetLeaf(pos, a, 1-a)
		if l == lRow {
			preTree.SetLeaf(pos, a, 1-a)
		}
	}
	// Assemble the per-pin distributions.
	for j := 0; j < m; j++ {
		out := sc.hyp[j]
		for y := 0; y < e.numLabels; y++ {
			out[y] = sc.snapPre[j][y] + (sc.cumPost[y] - sc.snapPost[j][y]) + sc.own[j][y]
		}
	}
	return sc.hyp[:m]
}

// RelevantRows reports, per training row, whether the row can appear in the
// test point's top-K in *any* possible world under the current pins. If not,
// every world's prediction is independent of that row's candidate choice, so
// pinning it cannot change the Q2 distribution — CPClean uses this to skip
// hypothesis evaluations wholesale.
//
// Soundness: let bound be the (K+1)-th largest per-row *worst* (least
// similar) valid candidate similarity. If row i's *best* valid candidate
// similarity is strictly below bound, then in every world at least K rows
// other than i choose candidates strictly more similar than anything row i
// can offer, so row i is never in the top-K. Ties are kept relevant
// (conservative).
func (e *Engine) RelevantRows(k int) []bool {
	n := e.N()
	rel := make([]bool, n)
	if n <= k {
		for i := range rel {
			rel[i] = true
		}
		return rel
	}
	// The per-row extremes come precomputed from the build; the bound is
	// found by selection, which may permute worst.
	worst := make([]float64, n)
	for i := range worst {
		j := e.pins[i]
		if j < 0 {
			j = e.argMin[i]
		}
		worst[i] = boundSim(e.inst.Sims[i][j])
	}
	bound := selectNth(worst, k, func(a, b float64) bool { return a > b }) // (k+1)-th largest
	for i := range rel {
		j := e.pins[i]
		if j < 0 {
			j = e.argMax[i]
		}
		rel[i] = boundSim(e.inst.Sims[i][j]) >= bound
	}
	return rel
}

// boundSim is s with NaN counted as −Inf. NaN ranks below −Inf in the total
// order, so the substitution can only turn a strict order into a tie, which
// RelevantRows keeps relevant: the bound stays sound.
func boundSim(s float64) float64 {
	if s != s {
		return math.Inf(-1)
	}
	return s
}
