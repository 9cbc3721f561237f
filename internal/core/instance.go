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

// radixScratch holds sortedCandidates' temporaries between engine builds.
// Everything but the returned order is garbage the moment a sort ends;
// reusing it keeps a burst of engine builds from inflating the peak heap.
type radixScratch struct {
	hist          [radixPasses][1 << radixBits]int32
	keys, keysTmp []uint64
	refs          []candRef
}

var radixScratchPool = sync.Pool{New: func() any { return new(radixScratch) }}

// sortedCandidates returns every candidate reference ordered by ascending
// similarity (least similar first), the scan order of the SS algorithms:
// a comes before b iff MoreSimilar(b, a). It is a stable LSD radix sort on
// simKey. Candidates are enumerated in descending (row, cand) order, so
// stability leaves equal keys with the larger (row, cand) first — exactly
// MoreSimilar's tie-break. A pass whose digit is the same in every key would
// be the identity and is skipped.
func (in *Instance) sortedCandidates() []candRef {
	n := in.TotalCandidates()
	out := make([]candRef, n)
	if n == 0 {
		return out
	}
	sc := radixScratchPool.Get().(*radixScratch)
	defer radixScratchPool.Put(sc)
	sc.keys = slices.Grow(sc.keys[:0], n)[:n]
	sc.keysTmp = slices.Grow(sc.keysTmp[:0], n)[:n]
	sc.refs = slices.Grow(sc.refs[:0], n)[:n]
	keys, keysTmp := sc.keys, sc.keysTmp
	refs, refsTmp := out, sc.refs
	p := 0
	for i := len(in.Sims) - 1; i >= 0; i-- {
		row := in.Sims[i]
		for j := len(row) - 1; j >= 0; j-- {
			keys[p] = simKey(row[j])
			refs[p] = candRef{int32(i), int32(j)}
			p++
		}
	}
	hist := &sc.hist
	*hist = [radixPasses][1 << radixBits]int32{}
	for _, k := range keys {
		for d := range hist {
			hist[d][k>>(radixBits*d)&radixMask]++
		}
	}
	for d := range hist {
		h := &hist[d]
		shift := radixBits * d
		if int(h[keys[0]>>shift&radixMask]) == n {
			continue
		}
		var sum int32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for x, k := range keys {
			b := k >> shift & radixMask
			keysTmp[h[b]] = k
			refsTmp[h[b]] = refs[x]
			h[b]++
		}
		keys, keysTmp = keysTmp, keys
		refs, refsTmp = refsTmp, refs
	}
	if &refs[0] != &out[0] {
		copy(out, refs) // an odd number of passes ended in the scratch buffer
	}
	return out
}
