package core

import (
	"fmt"
	"math"
	"math/big"
	"slices"

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
	// ascending in similarity, each naming its row by evaluated index
	// (Instance). A candidate below T (the (K+1)-th most similar row
	// minimum, for the K the engine was built for) can never sit on a top-K
	// boundary under any pins, so a scan of it would only add 1 to its row's
	// α: below[e] counts evaluated row e's candidates below T, and every
	// scan starts from that α (seedAlpha) instead of from position 0. An
	// untruncated engine has T = −∞, below all zero and every candidate in
	// order.
	order []candRef
	t     threshold
	maxK  int // largest K the truncation is sound for
	// below, argMin, argMax and slot hold one entry per evaluated row, by
	// evaluated index; an absent row has none and stays implicit: below =
	// M, never live, never relevant. argMin/argMax are the row's least and
	// most similar candidate under the total order (MM, RelevantRows).
	below          []int32
	argMin, argMax []int32
	// live lists the evaluated rows with kept candidates (the live rows),
	// grouped by label, ascending within a label; liveRows[l] is label l's
	// run of it, and shapes[l] is the path-collapsed tree over their leaves
	// (segtree.Shape), in which slot[e] is live row e's leaf (slot is
	// meaningless for other rows). The collapsed tree carries the bits of a
	// dense tree over every row of the label, leaves in row order (the
	// rows' dataset.RowFact ranks): every other row's leaf is exactly [1,0]
	// at any position that does tree work — α = M_i, or the row is pinned
	// to a candidate below T (α = 1, M_eff = 1). An untruncated engine
	// lists every row. zeroRows counts the live rows with below = 0, the
	// rows with α = 0 when nothing is pinned.
	live     []int32
	liveRows [][]int32
	shapes   []segtree.Shape
	slot     []int32
	zeroRows int
	// pins[i] is the candidate index row i is cleaned to, or -1; nil until
	// the first SetPin (or Fork), so a pooled engine never pinned has none.
	pins   []int32
	pinGen uint64 // bumped on every pin mutation (SetPin, ResetPins)
	// pinLog lists the rows freshly pinned (unpinned before) by the
	// mutations after generation logGen, in order: pinLog[j] made
	// generation logGen+j+1. Any other mutation (an unpin, a repin,
	// ResetPins) restarts the log empty at its own generation, so the log
	// holds at most one entry per row. Retained reads it to decide
	// staleness.
	pinLog []int32
	logGen uint64
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
// and scans only the candidates that can reach a top-k boundary, and
// evaluates the kernel only for rows whose similarity bound does not prove
// them wholly below T (bound-first; the others are absent from its
// Instance). Every answer is bit-identical to NewEngine's. With k < 1 or
// N ≤ k it is NewEngine.
func NewTruncatedEngine(d *dataset.Incomplete, kernel knn.Kernel, t []float64, k int) *Engine {
	return NewTruncatedEngineFromInstance(boundedInstance(d, kernel, t, k), k)
}

// NewTruncatedEngineFromInstance is NewTruncatedEngine over a precomputed
// similarity view. Its cost past the view is O(evaluated rows + kept
// candidates·log): nothing is allocated or visited per absent row.
func NewTruncatedEngineFromInstance(inst *Instance, k int) *Engine {
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
		liveRows:  make([][]int32, inst.NumLabels),
		shapes:    make([]segtree.Shape, inst.NumLabels),
	}
	if v.t != noThreshold {
		e.maxK = k
	}
	sc := radixScratchPool.Get().(*radixScratch)
	defer radixScratchPool.Put(sc)
	sc.live = slices.Grow(sc.live[:0], inst.NumLabels)[:inst.NumLabels]
	counts := sc.live // live rows per label
	clear(counts)
	ne := len(inst.rows)
	total := 0
	for ev, b := range e.below {
		if f := inst.facts[inst.rows[ev]]; b < f.M {
			counts[f.Label]++
			total++
			if b == 0 {
				e.zeroRows++
			}
		}
	}
	// One backing array holds the slots, the live rows, then the shapes'
	// pair parents (live−1 per label); another the pairs' dense levels.
	flat := make([]int32, ne+2*total)
	levels := make([]uint8, total)
	e.slot, e.live, flat = flat[:ne:ne], flat[ne:ne+total:ne+total], flat[ne+total:]
	maxLive := int32(0)
	rest := e.live
	for l, c := range counts {
		e.liveRows[l], rest = rest[:0:c], rest[c:]
		maxLive = max(maxLive, c)
	}
	for ev, b := range e.below {
		if f := inst.facts[inst.rows[ev]]; b < f.M {
			e.liveRows[f.Label] = append(e.liveRows[f.Label], int32(ev))
		}
	}
	sc.leaves = slices.Grow(sc.leaves[:0], int(maxLive))
	for l, rs := range e.liveRows {
		// A live row's leaf in the dense tree is its rank among its label's
		// rows; the shape turns the ranks into slots.
		lv := sc.leaves[:len(rs)]
		for j, ev := range rs {
			lv[j] = inst.facts[inst.rows[ev]].Rank
		}
		e.shapes[l] = segtree.NewShape(lv, flat, levels)
		flat, levels = flat[e.shapes[l].Slots()/2:], levels[e.shapes[l].Slots()/2:]
		for j, ev := range rs {
			e.slot[ev] = lv[j]
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

// seedAlpha writes into alpha, for every live row by evaluated index, the
// α state a scan of every candidate below T leaves under pins — below[e]
// for an uncertain row; 1 or 0 for a pinned row, as its chosen candidate
// lies below T or not — and returns the number of rows with α = 0. It
// visits the live rows only: every other row's α is at least 1 (M for an
// uncertain row, 1 for a pinned one, whose every candidate lies below T),
// so it is never 0, and no scan reads it. No position below T does tree
// work (at least K+1 rows still have α = 0 there), so a scan of order from
// this state equals a scan of every candidate from zero, bit for bit.
func (e *Engine) seedAlpha(alpha []int32, pins pinView) int {
	if !pins.any() {
		for _, ev := range e.live {
			alpha[ev] = e.below[ev]
		}
		return e.zeroRows
	}
	zero := 0
	for _, ev := range e.live {
		b := e.below[ev]
		i := e.inst.rows[ev]
		if ch := pins.at(i); ch >= 0 && b > 0 {
			b = 0
			if e.t.below(simKey(e.inst.evalRow(int(ev))[ch]), i, ch) {
				b = 1
			}
		}
		alpha[ev] = b
		if b == 0 {
			zero++
		}
	}
	return zero
}

// liveIndex returns row's evaluated index when the row is live (has a kept
// candidate), and −1 otherwise.
func (e *Engine) liveIndex(row int) int {
	if ev, ok := e.inst.evalIndex(row); ok && e.below[ev] < int32(e.inst.M(row)) {
		return ev
	}
	return -1
}

// Fork returns an engine over e's read-only view (similarities, scan order,
// row layout) with its own copy of e's pins, at e's pin generation, and an
// empty pin log of its own. Pinning the fork never touches e, so one cached
// view can back any number of independently pinned engines. Like SetPin,
// not safe to call concurrently with pin mutations of e.
func (e *Engine) Fork() *Engine {
	f := *e
	f.pins = nil
	f.allocPins()
	copy(f.pins, e.pins)
	f.pinLog, f.logGen = nil, e.pinGen
	return &f
}

// allocPins gives the engine its pin array, every row unpinned, unless it
// has one.
func (e *Engine) allocPins() {
	if e.pins != nil {
		return
	}
	e.pins = make([]int32, e.N())
	for i := range e.pins {
		e.pins[i] = -1
	}
}

// Instance returns the similarity view the engine answers queries over. A
// bound-first engine's view has absent rows (Row(i) == nil, M(i) kept):
// rows whose every candidate lies below T, whose similarities were never
// computed. It can back another engine only for K up to the one this
// engine was built for.
func (e *Engine) Instance() *Instance { return e.inst }

// N returns the number of training examples.
func (e *Engine) N() int { return e.inst.N() }

// SetPin permanently fixes row to its cand-th candidate (cleaning); cand = -1
// clears the pin. Not safe to call concurrently with queries.
func (e *Engine) SetPin(row, cand int) {
	if cand >= 0 && cand >= e.inst.M(row) {
		panic(fmt.Sprintf("core: pin candidate %d out of range for row %d (M=%d)", cand, row, e.inst.M(row)))
	}
	e.allocPins()
	fresh := cand >= 0 && e.pins[row] < 0
	e.pins[row] = int32(cand)
	e.pinGen++
	if fresh {
		e.pinLog = append(e.pinLog, int32(row))
	} else {
		e.restartPinLog()
	}
}

// restartPinLog empties the pin log at the current generation: the pins
// before it no longer differ from the current ones by fresh pins alone.
func (e *Engine) restartPinLog() {
	e.pinLog, e.logGen = e.pinLog[:0], e.pinGen
}

// Pin returns the pinned candidate of row, or -1.
func (e *Engine) Pin(row int) int {
	if e.pins == nil {
		return -1
	}
	return int(e.pins[row])
}

// PinGeneration returns a counter bumped by every pin mutation (SetPin,
// ResetPins). Retained, the cache of an engine's cleaning state, compares
// generations to detect that the engine was pinned out from under it, and a
// CPClean run records the generation each point's certainty holds at.
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

// WorldCount returns the number of possible worlds remaining under the pins:
// O(N) big-integer products.
func (e *Engine) WorldCount() *big.Int {
	total := big.NewInt(1)
	for i := 0; i < e.N(); i++ {
		if e.Pin(i) < 0 {
			total.Mul(total, big.NewInt(int64(e.inst.M(i))))
		}
	}
	return total
}

// Scratch holds per-goroutine query state for an Engine. A Scratch is bound
// to one (engine, K) pair and must not be shared between goroutines. It may
// be reused across engines of identical shape (same N and number of labels)
// — CPClean exploits this across validation-point engines: its trees are
// storage that each scan gives the engine's tree shapes.
type Scratch struct {
	k     int
	trees []*segtree.Tree
	// alpha holds each live row's α by evaluated index. seedAlpha writes
	// the entries of the engine a scan runs on; entries of other rows are
	// left over from earlier scans and never read.
	alpha   []int32
	counts  []float64
	tallies [][]int
	winners []int
	// SS-DC-MC winner-cap DP buffers.
	dpA, dpB []float64
	// roots views each tree's root, set by buildLeaves; a scan position
	// points its forced row's label at probe for the tally.
	roots [][]float64
	// probe holds the root of the forced row's label tree with the row
	// forced onto the boundary (segtree.Tree.SetLeafProbe).
	probe []float64
	// HypothesisGroup state: the shifted pre-state root of a row's label,
	// the rows' states, the active and the finished rows, a position's
	// nonzero plain post supports, the plain walk of the current position,
	// each live group row's index+1 by evaluated index (0 for none), and
	// the views of one row's distributions.
	shifted  []float64
	group    []hypRow
	active   []int32
	finished []int32
	posts    []support
	walk     segtree.Path
	groupAt  []int32
	views    [][]float64
	oneRow   [1]int
}

// scratchShape is the structural signature a Scratch is sized by: the row
// and label counts. It carries no reference to any engine, so pools can
// hold it without retaining the engine they were seeded from.
type scratchShape struct {
	n, numLabels int
}

// shape returns the engine's scratch shape.
func (e *Engine) shape() scratchShape {
	return scratchShape{n: e.N(), numLabels: e.numLabels}
}

// newScratchFromShape allocates query state for the given shape and K. The
// trees start empty and grow to the largest tree shape a scan gives them.
func newScratchFromShape(sh scratchShape, k int) *Scratch {
	numLabels := sh.numLabels
	sc := &Scratch{
		k:       k,
		alpha:   make([]int32, sh.n),
		counts:  make([]float64, numLabels),
		dpA:     make([]float64, k+1),
		dpB:     make([]float64, k+1),
		roots:   make([][]float64, numLabels),
		probe:   make([]float64, k+1),
		shifted: make([]float64, k+1),
		groupAt: make([]int32, sh.n),
	}
	for l := 0; l < numLabels; l++ {
		sc.trees = append(sc.trees, segtree.NewTree(k))
	}
	sc.tallies = compositions(k, numLabels)
	sc.winners = make([]int, len(sc.tallies))
	sc.posts = make([]support, 0, len(sc.tallies))
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
	clear(sc.counts)
	return e.scan(sc, e.pinsFor(overrideRow, overrideCand), useMC)
}

// pinView is the pin vector a query runs under: the engine's pins (nil when
// it has none) with row, unless it is −1, pinned to cand for this query
// only — the shared engine is never written during a query.
type pinView struct {
	pins      []int32
	row, cand int32
}

// pinsFor returns the engine's pins with the per-query override
// (overrideRow −1 for none).
func (e *Engine) pinsFor(overrideRow, overrideCand int) pinView {
	return pinView{pins: e.pins, row: int32(overrideRow), cand: int32(overrideCand)}
}

// at returns row i's pinned candidate under the view, or −1.
func (p pinView) at(i int32) int32 {
	if i == p.row {
		return p.cand
	}
	if p.pins == nil {
		return -1
	}
	return p.pins[i]
}

// any reports whether the view may pin a row.
func (p pinView) any() bool { return p.pins != nil || p.row >= 0 }

// buildLeaves bulk-builds every label tree from the current α state: the
// tree takes the engine's collapsed shape for the label, and the leaf of
// each live row is [α/M, 1−α/M] with M = 1 for rows pinned in pins (every
// other row's leaf is [1,0]; see live). It points sc.roots at the trees'
// roots.
func (e *Engine) buildLeaves(sc *Scratch, pins pinView) {
	inst := e.inst
	for l, tr := range sc.trees {
		tr.Reset(e.shapes[l])
		for _, ev := range e.liveRows[l] {
			i := inst.rows[ev]
			mEff := inst.facts[i].M
			if pins.at(i) >= 0 {
				mEff = 1
			}
			a := float64(sc.alpha[ev]) / float64(mEff)
			tr.InitLeaf(int(e.slot[ev]), a, 1-a)
		}
		tr.Build()
		sc.roots[l] = tr.Root()
	}
}

// Entropy returns the Shannon entropy (nats) of the Q2 distribution under
// the given override — the quantity CPClean greedily minimizes (§4, Eq. 3).
func (e *Engine) Entropy(sc *Scratch, overrideRow, overrideCand int) float64 {
	return Entropy(e.Counts(sc, overrideRow, overrideCand))
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
//
// An absent row (Instance) is irrelevant and takes no part in the bound,
// so only the evaluated rows are visited. Its every candidate lies strictly
// below T in value (boundedInstance), and the K+1 rows whose minima define
// T each have worst ≥ T: so the bound is ≥ T, above the row's true worst
// and best alike, and neither the bound nor the row's verdict changes.
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
	// found by selection, which permutes worst. With at most k evaluated
	// rows the (k+1)-th largest worst over all N rows is an absent row's,
	// −Inf.
	inst := e.inst
	pins := e.pinsFor(-1, -1)
	worst := make([]float64, len(inst.rows))
	for ev, i := range inst.rows {
		j := pins.at(i)
		if j < 0 {
			j = e.argMin[ev]
		}
		worst[ev] = boundSim(inst.evalRow(ev)[j])
	}
	bound := math.Inf(-1)
	if k < len(worst) {
		bound = kthLargest(worst, k)
	}
	for ev, i := range inst.rows {
		j := pins.at(i)
		if j < 0 {
			j = e.argMax[ev]
		}
		rel[i] = boundSim(inst.evalRow(ev)[j]) >= bound
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
