// Package core implements the paper's Certain Prediction (CP) primitives for
// K-nearest-neighbor classifiers: the checking query Q1 and the counting
// query Q2 over the exponentially many possible worlds of an incomplete
// dataset, answered in polynomial time.
//
// Implementations provided (Figure 4 of the paper):
//
//   - Brute force — enumerates possible worlds; exponential, used as the
//     ground truth in tests (BruteForceCounts).
//   - SS (SortScan), naive exact — O((NM)²·K·|Y|) with math/big integers
//     (SSExactCounts); the verification reference for large-count cases.
//   - SS for K = 1 — the O(NM log NM) incremental scan of §3.1.2
//     (SSFastCounts, SSFastExactCounts).
//   - SS-DC — the general O(NM·(log NM + K²·log N)) algorithm of §3.1.3 +
//     appendix A.2, built on a segment tree of truncated polynomial products
//     (Engine.Counts).
//   - SS-DC-MC — the multi-class variant of appendix A.3, polynomial in |Y|
//     (Engine.CountsMC).
//   - MM (MinMax) — Q1 for binary labels in O(NM + N log K) via l-extreme
//     worlds, §3.2 (Engine.CheckMM, MMCheck).
//
// All algorithms share one strict total order over candidates (descending
// similarity, ties to the lexicographically smaller (row, candidate) pair)
// and one vote tie-break (smallest label), so their answers agree exactly.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// Instance is an incomplete training set viewed through the lens of a single
// test point: only the candidate similarities and the per-row facts remain.
// Row(i)[j] is κ(x_{i,j}, t) for candidate j of training example i.
//
// Layout: the evaluated rows are numbered 0..E−1 in ascending row order
// (their evaluated index); rows[e] is the e-th evaluated row and its
// similarities are sims[off[e]:off[e+1]], one flat array with no per-row
// pointer. Each row's label, candidate count M and leaf rank come from one
// dataset.RowFact array, which an instance of a dataset shares with the
// dataset and with every other instance of it.
//
// A row may be absent: not evaluated, so Row(i) == nil while M(i) still
// reports its candidate count. Only a bound-first engine build
// (NewTruncatedEngine) leaves rows absent, and only rows it proved to lie
// wholly below the truncation threshold T for every K up to the one it was
// built for; InstanceFor and NewInstance evaluate every row.
type Instance struct {
	NumLabels int
	facts     []dataset.RowFact
	rows      []int32 // evaluated rows, ascending
	off       []int32 // len(rows)+1 offsets into sims
	sims      []float64
	// boundK is the largest K the absent rows were proven for.
	boundK int
}

// NewInstance validates shapes and label ranges. sims[i] holds example i's
// candidate similarities; the instance keeps a copy.
func NewInstance(sims [][]float64, labels []int, numLabels int) (*Instance, error) {
	if len(sims) != len(labels) {
		return nil, fmt.Errorf("core: %d similarity rows but %d labels", len(sims), len(labels))
	}
	if numLabels < 2 {
		return nil, fmt.Errorf("core: need at least 2 labels, got %d", numLabels)
	}
	n, total := len(sims), 0
	for i, row := range sims {
		if len(row) == 0 {
			return nil, fmt.Errorf("core: example %d has no candidates", i)
		}
		if labels[i] < 0 || labels[i] >= numLabels {
			return nil, fmt.Errorf("core: label %d at example %d out of range [0,%d)", labels[i], i, numLabels)
		}
		total += len(row)
	}
	in := newInstance(numLabels, make([]dataset.RowFact, n), n, total)
	rank := make([]int32, numLabels)
	p := 0
	for i, row := range sims {
		l := labels[i]
		in.facts[i] = dataset.RowFact{Label: int32(l), M: int32(len(row)), Rank: rank[l]}
		rank[l]++
		in.rows[i], in.off[i] = int32(i), int32(p)
		p += copy(in.sims[p:], row)
	}
	in.off[n] = int32(p)
	return in, nil
}

// newInstance allocates an instance over facts with room for e evaluated
// rows holding nm similarities in total.
func newInstance(numLabels int, facts []dataset.RowFact, e, nm int) *Instance {
	idx := make([]int32, 2*e+1)
	return &Instance{
		NumLabels: numLabels,
		facts:     facts,
		rows:      idx[:e:e],
		off:       idx[e:],
		sims:      make([]float64, nm),
	}
}

// MustNewInstance is NewInstance but panics on error.
func MustNewInstance(sims [][]float64, labels []int, numLabels int) *Instance {
	inst, err := NewInstance(sims, labels, numLabels)
	if err != nil {
		panic(err)
	}
	return inst
}

// InstanceFor computes the similarity view of incomplete dataset d with
// respect to test point t under the given kernel, every row present.
func InstanceFor(d *dataset.Incomplete, kernel knn.Kernel, t []float64) *Instance {
	return boundedInstance(d, kernel, t, 0)
}

// boxBounder is a kernel that brackets its similarity to t over a candidate
// box (knn's BoxBounds methods).
type boxBounder interface {
	BoxBounds(lo, hi, t []float64) (min, max float64)
}

// boundedInstance is the similarity view for queries with at most k
// neighbors, bound-first: it brackets every row's similarities from its
// candidate box (dataset.Incomplete.Box), takes T_lo, the (k+1)-th largest
// lower end, and evaluates the kernel only for rows whose upper end is at
// least T_lo. The rest are left absent.
//
// Soundness: T is the (k+1)-th most similar row minimum. At least k+1 rows
// have a lower end ≥ T_lo, so their minima are ≥ T_lo and T_lo ≤ T. A row
// whose upper end is strictly below T_lo has every candidate strictly less
// similar than those k+1 minima: every candidate lies below T for any K ≤ k,
// and its minimum is not among the k+1 that define T. T, the kept order and
// every row extreme an engine reads therefore come from the evaluated rows
// alone, bit for bit as from a full view. A kernel without box bounds, or a
// dataset without boxes, brackets every row by ±Inf (T_lo = −Inf) and every
// row is evaluated; so is every row for k < 1 or N ≤ k.
func boundedInstance(d *dataset.Incomplete, kernel knn.Kernel, t []float64, k int) *Instance {
	facts := d.RowFacts()
	n := len(facts)
	var upper []float64
	tLo := math.Inf(-1)
	if k >= 1 && k < n {
		sc := radixScratchPool.Get().(*radixScratch)
		defer radixScratchPool.Put(sc)
		upper, tLo = rowBounds(sc, d, kernel, t, k)
	}
	evaluated := func(i int) bool { return upper == nil || upper[i] >= tLo }
	e, nm := 0, 0
	for i, f := range facts {
		if evaluated(i) {
			e++
			nm += int(f.M)
		}
	}
	in := newInstance(d.NumLabels, facts, e, nm)
	if e < n {
		in.boundK = k
	}
	e, p := 0, 0
	for i := range facts {
		if !evaluated(i) {
			continue
		}
		in.rows[e], in.off[e] = int32(i), int32(p)
		e++
		for _, c := range d.Examples[i].Candidates {
			in.sims[p] = kernel.Similarity(c, t)
			p++
		}
	}
	in.off[e] = int32(p)
	return in
}

// rowBounds writes every row's bracket of its similarities to t into sc and
// returns the upper ends with T_lo, the (k+1)-th largest lower end
// (1 ≤ k < N). Rows without a box, or a kernel without bounds, get ±Inf;
// no bound is NaN (knn maps a NaN bound to an infinity).
func rowBounds(sc *radixScratch, d *dataset.Incomplete, kernel knn.Kernel, t []float64, k int) (upper []float64, tLo float64) {
	n := d.N()
	sc.lower = slices.Grow(sc.lower[:0], n)[:n]
	sc.upper = slices.Grow(sc.upper[:0], n)[:n]
	lower, upper := sc.lower, sc.upper
	bb, ok := kernel.(boxBounder)
	for i := range lower {
		lower[i], upper[i] = math.Inf(-1), math.Inf(1)
		if lo, hi, hasBox := d.Box(i); ok && hasBox {
			lower[i], upper[i] = bb.BoxBounds(lo, hi, t)
		}
	}
	return upper, kthLargest(lower, k)
}

// N returns the number of training examples.
func (in *Instance) N() int { return len(in.facts) }

// M returns the candidate count of example i, present or absent.
func (in *Instance) M(i int) int { return int(in.facts[i].M) }

// Label returns the label of example i.
func (in *Instance) Label(i int) int { return int(in.facts[i].Label) }

// Row returns example i's candidate similarities, or nil for an absent
// row. The slice aliases the instance.
func (in *Instance) Row(i int) []float64 {
	e, ok := in.evalIndex(i)
	if !ok {
		return nil
	}
	return in.evalRow(e)
}

// evalIndex returns row i's evaluated index, and false for an absent row.
func (in *Instance) evalIndex(i int) (int, bool) {
	if len(in.rows) == len(in.facts) {
		return i, true // every row evaluated
	}
	return slices.BinarySearch(in.rows, int32(i))
}

// evalRow returns the similarities of the evaluated row with index e.
func (in *Instance) evalRow(e int) []float64 {
	return in.sims[in.off[e]:in.off[e+1]]
}

// TotalCandidates returns Σ_i M_i.
func (in *Instance) TotalCandidates() int {
	s := 0
	for _, f := range in.facts {
		s += int(f.M)
	}
	return s
}

// MoreSimilar reports whether candidate (i1,j1) is strictly more similar to
// the test point than (i2,j2) under the package's total order: higher
// similarity wins; exact ties go to the lexicographically smaller (i,j).
// −0 and +0 tie, and NaN ranks below −Inf and ties with every other NaN, so
// the order stays a strict total order whatever the kernel returns (a finite
// input can still overflow to Inf − Inf). The paper assumes no ties ("we can
// always break a tie by favoring a smaller i and j"); this order realizes
// that assumption. Both rows must be present and both candidates exist: an
// absent row or a candidate index outside [0, M) panics.
func (in *Instance) MoreSimilar(i1, j1, i2, j2 int) bool {
	e1, e2 := i1, i2
	if len(in.rows) != len(in.facts) {
		var ok1, ok2 bool
		e1, ok1 = slices.BinarySearch(in.rows, int32(i1))
		e2, ok2 = slices.BinarySearch(in.rows, int32(i2))
		if !ok1 || !ok2 {
			panic("core: MoreSimilar of a row absent from the instance")
		}
	}
	return moreSimilar(in.evalRow(e1)[j1], i1, j1, in.evalRow(e2)[j2], i2, j2)
}

// moreSimilar is MoreSimilar over the candidates' similarities s1 and s2.
func moreSimilar(s1 float64, i1, j1 int, s2 float64, i2, j2 int) bool {
	if s1 > s2 {
		return true
	}
	if s1 < s2 {
		return false
	}
	if n1, n2 := s1 != s1, s2 != s2; n1 != n2 {
		return n2 // exactly one NaN: the other side is more similar
	}
	if i1 != i2 {
		return i1 < i2
	}
	return j1 < j2
}

// candRef identifies one candidate value: candidate cand of the evaluated
// row with index row (the row itself in an instance that evaluates every
// row).
type candRef struct {
	row, cand int32
}

// simKey maps a similarity to a uint64 whose unsigned order is MoreSimilar's
// similarity order: −0 becomes +0 (they tie), every NaN becomes 0 (below
// −Inf, whose key is 0x000F…F), negative values have every bit flipped and
// non-negative values only the sign bit.
func simKey(s float64) uint64 {
	if s != s {
		return 0
	}
	if s == 0 {
		s = 0 // −0 → +0
	}
	b := math.Float64bits(s)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Radix digits of the scan-order sort: six 11-bit passes cover the 64-bit
// key. Against eight byte passes this saves two scatters per candidate for a
// 48 KiB histogram.
const (
	radixBits   = 11
	radixPasses = (64 + radixBits - 1) / radixBits
	radixMask   = 1<<radixBits - 1
)

// radixScratch holds an engine build's temporaries between builds: the row
// bounds, scanView's sort buffers and the engine's tree-shape buffers.
// Everything but the returned view is garbage the moment a build ends;
// reusing it keeps a burst of engine builds from inflating the peak heap.
type radixScratch struct {
	hist          [radixPasses][1 << radixBits]int32
	keys, keysTmp []uint64
	refs          []candRef
	mins          []threshold
	lower, upper  []float64
	live, leaves  []int32
}

var radixScratchPool = sync.Pool{New: func() any { return new(radixScratch) }}

// threshold is a position in the total order, named by its candidate: the
// candidate's simKey and (row, cand). Engine build truncates the scan order
// at T, the (K+1)-th most similar row minimum.
type threshold struct {
	key       uint64
	row, cand int32
}

// noThreshold is T = −∞: no candidate lies below it, so nothing is
// truncated.
var noThreshold = threshold{row: math.MaxInt32, cand: math.MaxInt32}

// below reports whether the candidate (row, cand) with similarity key key
// is strictly less similar than t under MoreSimilar's total order — higher
// key wins, equal keys go to the smaller (row, cand).
func (t threshold) below(key uint64, row, cand int32) bool {
	if key != t.key {
		return key < t.key
	}
	if row != t.row {
		return row > t.row
	}
	return cand > t.cand
}

// moreSimilar orders row minima for the threshold selection: most similar
// first. Rows are distinct, so the order is strict.
func (t threshold) moreSimilar(u threshold) bool {
	if t.key != u.key {
		return t.key > u.key
	}
	return t.row < u.row
}

// scanView is what engine build derives from an instance in two passes over
// its candidates: each evaluated row's least and most similar candidate
// under the total order, the truncation threshold T, each evaluated row's
// count of candidates below T, and the scan order of the candidates that
// remain. The per-row arrays are indexed by evaluated index (Instance).
type scanView struct {
	order          []candRef // kept candidates, ascending similarity
	argMin, argMax []int32
	below          []int32
	t              threshold
}

// scanView builds the engine's view for queries with at most K = k
// neighbors. T is the (K+1)-th most similar row minimum: a candidate below T
// has at least K+1 other rows whose every candidate is more similar, under
// any pins (pins only raise a row's minimum), so it can never sit on a
// top-K boundary and only adds to its row's starting α. Those candidates
// are counted in below and left out of order. With k < 1 or N ≤ k there is
// no K+1-th row, T = −∞ and order holds every candidate. An absent row lies
// wholly below T (boundedInstance) and has no entry: its below is
// implicitly its M. Its absence is proven only for 1 ≤ k ≤ boundK; any
// other k is a caller bug and panics.
//
// order is a stable LSD radix sort on simKey: a comes before b iff
// MoreSimilar(b, a). Candidates are enumerated in descending (row, cand)
// order, so stability leaves equal keys with the larger (row, cand) first —
// exactly MoreSimilar's tie-break. A pass whose digit is the same in every
// key would be the identity and is skipped.
func (in *Instance) scanView(k int) scanView {
	ne := len(in.rows)
	if ne < in.N() && (k < 1 || k > in.boundK) {
		panic(fmt.Sprintf("core: instance with rows absent for K ≤ %d viewed for K=%d", in.boundK, k))
	}
	nm := len(in.sims)
	state := make([]int32, 3*ne)
	v := scanView{
		argMin: state[:ne:ne],
		argMax: state[ne : 2*ne : 2*ne],
		below:  state[2*ne:],
		t:      noThreshold,
	}
	sc := radixScratchPool.Get().(*radixScratch)
	defer radixScratchPool.Put(sc)
	sc.keys = slices.Grow(sc.keys[:0], nm)[:nm]
	mins := sc.mins[:0]
	keys := sc.keys
	// Pass 1: every key, in descending (row, cand) order, with each row's
	// extremes. j descends, so on equal keys the argmax moves to the smaller
	// (more similar) j and the argmin stays on the larger one.
	p := 0
	for e := ne - 1; e >= 0; e-- {
		row := in.evalRow(e)
		last := len(row) - 1 // every present row has a candidate (NewInstance)
		lo := simKey(row[last])
		hi, loJ, hiJ := lo, last, last
		keys[p] = lo
		p++
		for j := last - 1; j >= 0; j-- {
			key := simKey(row[j])
			keys[p] = key
			p++
			if key < lo {
				lo, loJ = key, j
			}
			if key >= hi {
				hi, hiJ = key, j
			}
		}
		v.argMin[e], v.argMax[e] = int32(loJ), int32(hiJ)
		mins = append(mins, threshold{key: lo, row: in.rows[e], cand: int32(loJ)})
	}
	sc.mins = mins
	// Absent rows' minima are all below T, so it is the (k+1)-th most
	// similar of the present rows' minima.
	if k >= 1 && k < len(mins) {
		v.t = selectNth(mins, k, threshold.moreSimilar)
	}
	// Pass 2: count each row's candidates below T and compact the rest,
	// keeping the descending (row, cand) enumeration order. A row's extremes
	// settle it whole unless it straddles T.
	sc.refs = slices.Grow(sc.refs[:0], nm)[:nm]
	refs := sc.refs
	q := 0
	p = 0
	for e := ne - 1; e >= 0; e-- {
		row, i := in.evalRow(e), in.rows[e]
		lo, hi := v.argMin[e], v.argMax[e]
		switch {
		case v.t.below(simKey(row[hi]), i, hi):
			v.below[e] = int32(len(row))
			p += len(row)
		case !v.t.below(simKey(row[lo]), i, lo):
			for j := len(row) - 1; j >= 0; j-- {
				keys[q] = keys[p]
				refs[q] = candRef{int32(e), int32(j)}
				p++
				q++
			}
		default:
			for j := len(row) - 1; j >= 0; j-- {
				key := keys[p]
				p++
				if v.t.below(key, i, int32(j)) {
					v.below[e]++
					continue
				}
				keys[q] = key
				refs[q] = candRef{int32(e), int32(j)}
				q++
			}
		}
	}
	v.order = make([]candRef, q)
	if q == 0 {
		return v
	}
	sc.keysTmp = slices.Grow(sc.keysTmp[:0], q)[:q]
	keys, keysTmp := keys[:q], sc.keysTmp
	refs, refsTmp := refs[:q], v.order
	hist := &sc.hist
	*hist = [radixPasses][1 << radixBits]int32{}
	for _, key := range keys {
		for d := range hist {
			hist[d][key>>(radixBits*d)&radixMask]++
		}
	}
	for d := range hist {
		h := &hist[d]
		shift := radixBits * d
		if int(h[keys[0]>>shift&radixMask]) == q {
			continue
		}
		var sum int32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for x, key := range keys {
			b := key >> shift & radixMask
			keysTmp[h[b]] = key
			refsTmp[h[b]] = refs[x]
			h[b]++
		}
		keys, keysTmp = keysTmp, keys
		refs, refsTmp = refsTmp, refs
	}
	if &refs[0] != &v.order[0] {
		copy(v.order, refs) // an even number of passes ended in the scratch buffer
	}
	return v
}

// sortedCandidates returns every candidate reference ordered by ascending
// similarity (least similar first): the untruncated scan order of
// the SS algorithms.
func (in *Instance) sortedCandidates() []candRef {
	return in.scanView(0).order
}

// selectNth reorders s so that s[n] is the element a sort under less would
// put there, and returns it (Hoare quickselect, median-of-three pivot,
// expected O(len(s))). Equal elements stop both scans, so heavy ties still
// split evenly.
func selectNth[T any](s []T, n int, less func(a, b T) bool) T {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if less(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if less(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if less(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for less(s[i], pivot) {
				i++
			}
			for less(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return s[n] // s[j+1 : i] all equal the pivot
		}
	}
	return s[n]
}

// kthLargest returns the (k+1)-th largest element of s (0 ≤ k < len(s)),
// reordering s. It keeps a min-heap of the k+1 largest elements seen so far
// in s's prefix: O(len(s)·log k), and one comparison for most elements when
// k is small. No element may be NaN.
func kthLargest(s []float64, k int) float64 {
	h := s[:k+1]
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, v := range s[k+1:] {
		if v > h[0] {
			h[0] = v
			siftDown(h, 0)
		}
	}
	return h[0]
}

// siftDown restores min-heap order in h below position i.
func siftDown(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[c] >= h[i] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
