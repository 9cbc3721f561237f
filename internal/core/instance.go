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
// test point: only the candidate similarities and the labels remain.
// Sims[i][j] is κ(x_{i,j}, t) for candidate j of training example i.
type Instance struct {
	Sims      [][]float64
	Labels    []int
	NumLabels int
}

// NewInstance validates shapes and label ranges.
func NewInstance(sims [][]float64, labels []int, numLabels int) (*Instance, error) {
	if len(sims) != len(labels) {
		return nil, fmt.Errorf("core: %d similarity rows but %d labels", len(sims), len(labels))
	}
	if numLabels < 2 {
		return nil, fmt.Errorf("core: need at least 2 labels, got %d", numLabels)
	}
	for i, row := range sims {
		if len(row) == 0 {
			return nil, fmt.Errorf("core: example %d has no candidates", i)
		}
		if labels[i] < 0 || labels[i] >= numLabels {
			return nil, fmt.Errorf("core: label %d at example %d out of range [0,%d)", labels[i], i, numLabels)
		}
	}
	return &Instance{Sims: sims, Labels: labels, NumLabels: numLabels}, nil
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
// respect to test point t under the given kernel. Every row of Sims is a
// sub-slice of one backing array, allocated once per build rather than once
// per row.
func InstanceFor(d *dataset.Incomplete, kernel knn.Kernel, t []float64) *Instance {
	total := 0
	for i := range d.Examples {
		total += d.Examples[i].M()
	}
	flat := make([]float64, total)
	sims := make([][]float64, d.N())
	labels := make([]int, d.N())
	for i := range d.Examples {
		ex := &d.Examples[i]
		m := ex.M()
		row := flat[:m:m]
		flat = flat[m:]
		for j, c := range ex.Candidates {
			row[j] = kernel.Similarity(c, t)
		}
		sims[i] = row
		labels[i] = ex.Label
	}
	return &Instance{Sims: sims, Labels: labels, NumLabels: d.NumLabels}
}

// N returns the number of training examples.
func (in *Instance) N() int { return len(in.Labels) }

// M returns the candidate count of example i.
func (in *Instance) M(i int) int { return len(in.Sims[i]) }

// TotalCandidates returns Σ_i M_i.
func (in *Instance) TotalCandidates() int {
	s := 0
	for _, row := range in.Sims {
		s += len(row)
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
// that assumption.
func (in *Instance) MoreSimilar(i1, j1, i2, j2 int) bool {
	s1, s2 := in.Sims[i1][j1], in.Sims[i2][j2]
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

// candRef identifies one candidate value.
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

// radixScratch holds scanView's temporaries between engine builds.
// Everything but the returned view is garbage the moment a build ends;
// reusing it keeps a burst of engine builds from inflating the peak heap.
type radixScratch struct {
	hist          [radixPasses][1 << radixBits]int32
	keys, keysTmp []uint64
	refs          []candRef
	mins          []threshold
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
// its candidates: each row's least and most similar candidate under the
// total order, the truncation threshold T, each row's count of candidates
// below T, and the scan order of the candidates that remain.
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
// no K+1-th row, T = −∞ and order holds every candidate.
//
// order is a stable LSD radix sort on simKey: a comes before b iff
// MoreSimilar(b, a). Candidates are enumerated in descending (row, cand)
// order, so stability leaves equal keys with the larger (row, cand) first —
// exactly MoreSimilar's tie-break. A pass whose digit is the same in every
// key would be the identity and is skipped.
func (in *Instance) scanView(k int) scanView {
	n := in.N()
	nm := in.TotalCandidates()
	v := scanView{
		argMin: make([]int32, n),
		argMax: make([]int32, n),
		below:  make([]int32, n),
		t:      noThreshold,
	}
	sc := radixScratchPool.Get().(*radixScratch)
	defer radixScratchPool.Put(sc)
	sc.keys = slices.Grow(sc.keys[:0], nm)[:nm]
	sc.mins = slices.Grow(sc.mins[:0], n)[:n]
	keys := sc.keys
	// Pass 1: every key, in descending (row, cand) order, with each row's
	// extremes. j descends, so on equal keys the argmax moves to the smaller
	// (more similar) j and the argmin stays on the larger one.
	p := 0
	for i := n - 1; i >= 0; i-- {
		row := in.Sims[i]
		last := len(row) - 1 // every row has a candidate (NewInstance)
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
		v.argMin[i], v.argMax[i] = int32(loJ), int32(hiJ)
		sc.mins[i] = threshold{key: lo, row: int32(i), cand: int32(loJ)}
	}
	if k >= 1 && k < n {
		v.t = selectNth(sc.mins, k, threshold.moreSimilar)
	}
	// Pass 2: count each row's candidates below T and compact the rest,
	// keeping the descending (row, cand) enumeration order. A row's extremes
	// settle it whole unless it straddles T.
	sc.refs = slices.Grow(sc.refs[:0], nm)[:nm]
	refs := sc.refs
	q := 0
	p = 0
	for i := n - 1; i >= 0; i-- {
		row := in.Sims[i]
		lo, hi := v.argMin[i], v.argMax[i]
		switch {
		case v.t.below(simKey(row[hi]), int32(i), hi):
			v.below[i] = int32(len(row))
			p += len(row)
		case !v.t.below(simKey(row[lo]), int32(i), lo):
			for j := len(row) - 1; j >= 0; j-- {
				keys[q] = keys[p]
				refs[q] = candRef{int32(i), int32(j)}
				p++
				q++
			}
		default:
			for j := len(row) - 1; j >= 0; j-- {
				key := keys[p]
				p++
				if v.t.below(key, int32(i), int32(j)) {
					v.below[i]++
					continue
				}
				keys[q] = key
				refs[q] = candRef{int32(i), int32(j)}
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
