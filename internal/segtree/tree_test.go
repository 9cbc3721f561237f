package segtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refConvolve computes the truncated product of leaf polynomials directly.
func refConvolve(leaves [][2]float64, k int) []float64 {
	acc := make([]float64, k+1)
	acc[0] = 1
	next := make([]float64, k+1)
	for _, lf := range leaves {
		for c := 0; c <= k; c++ {
			v := lf[0] * acc[c]
			if c > 0 {
				v += lf[1] * acc[c-1]
			}
			next[c] = v
		}
		copy(acc, next)
	}
	return acc
}

func almostEq(a, b []float64, eps float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}

func TestRootMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		k := 1 + rng.Intn(4)
		tr := New(n, k)
		leaves := make([][2]float64, n)
		for i := range leaves {
			leaves[i] = [2]float64{rng.Float64(), rng.Float64()}
			tr.SetLeaf(i, leaves[i][0], leaves[i][1])
		}
		want := refConvolve(leaves, k)
		if !almostEq(tr.Root(), want, 1e-12) {
			t.Fatalf("trial %d (n=%d k=%d): root %v want %v", trial, n, k, tr.Root(), want)
		}
	}
}

func TestIncrementalUpdatesMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, k := 9, 3
	tr := New(n, k)
	leaves := make([][2]float64, n)
	for i := range leaves {
		leaves[i] = [2]float64{rng.Float64(), rng.Float64()}
		tr.SetLeaf(i, leaves[i][0], leaves[i][1])
	}
	for step := 0; step < 200; step++ {
		i := rng.Intn(n)
		leaves[i] = [2]float64{rng.Float64(), rng.Float64()}
		tr.SetLeaf(i, leaves[i][0], leaves[i][1])
		want := refConvolve(leaves, k)
		if !almostEq(tr.Root(), want, 1e-12) {
			t.Fatalf("step %d: root %v want %v", step, tr.Root(), want)
		}
	}
}

func TestResetLeaves(t *testing.T) {
	n, k := 5, 2
	tr := New(n, k)
	p0 := []float64{1, 2, 3, 4, 5}
	p1 := []float64{5, 4, 3, 2, 1}
	tr.ResetLeaves([]int32{0, 1, 2, 3, 4}, p0, p1)
	leaves := make([][2]float64, n)
	for i := range leaves {
		leaves[i] = [2]float64{p0[i], p1[i]}
	}
	if !almostEq(tr.Root(), refConvolve(leaves, k), 1e-9) {
		t.Fatalf("root after reset = %v", tr.Root())
	}
	// ResetIdentity: root must be [1, 0, 0].
	tr.ResetIdentity()
	root := tr.Root()
	if root[0] != 1 || root[1] != 0 || root[2] != 0 {
		t.Fatalf("identity root = %v", root)
	}
}

func TestLeafReadback(t *testing.T) {
	tr := New(3, 2)
	tr.SetLeaf(1, 0.25, 0.75)
	if leaf := tr.node(tr.size + 1); leaf[0] != 0.25 || leaf[1] != 0.75 || leaf[2] != 0 {
		t.Fatalf("leaf = %v", leaf)
	}
}

func TestEmptyTreeIsIdentity(t *testing.T) {
	tr := New(0, 3)
	root := tr.Root()
	if root[0] != 1 {
		t.Fatalf("empty root = %v", root)
	}
	for _, v := range root[1:] {
		if v != 0 {
			t.Fatalf("empty root = %v", root)
		}
	}
}

func TestK0Tree(t *testing.T) {
	tr := New(4, 0)
	for i := 0; i < 4; i++ {
		tr.SetLeaf(i, 0.5, 0.5) // p1 is dropped at k=0
	}
	root := tr.Root()
	if math.Abs(root[0]-0.0625) > 1e-15 {
		t.Fatalf("k=0 root = %v", root)
	}
}

func TestSetLeafOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range leaf")
		}
	}()
	New(2, 1).SetLeaf(5, 0, 0)
}

// TestPathIndependence pins the purity invariant the retained-tree Q2 mode
// relies on: node values depend only on the final leaf state, bit for bit,
// no matter how that state was reached — incremental SetLeaf paths, a bulk
// ResetLeaves over every leaf, a sparse ResetLeaves over only the
// non-identity leaves of a tree holding stale state, or CopyFrom.
func TestPathIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		k := 1 + rng.Intn(4)
		// A random live subset holds random leaves; the rest are [1, 0].
		p0 := make([]float64, n)
		p1 := make([]float64, n)
		all := make([]int32, n)
		var live []int32
		var l0, l1 []float64
		for i := range p0 {
			all[i] = int32(i)
			p0[i], p1[i] = 1, 0
			if rng.Intn(3) > 0 {
				p0[i], p1[i] = rng.Float64(), rng.Float64()
				live = append(live, int32(i))
				l0, l1 = append(l0, p0[i]), append(l1, p1[i])
			}
		}
		// Path A: bulk rebuild over every leaf.
		a := New(n, k)
		a.ResetLeaves(all, p0, p1)
		// Path B: incremental updates in random order with detours.
		b := New(n, k)
		for _, i := range rng.Perm(n) {
			b.SetLeaf(i, rng.Float64(), rng.Float64()) // detour
			b.SetLeaf(i, p0[i], p1[i])
		}
		for _, i := range rng.Perm(n) { // redundant re-application
			b.SetLeaf(i, p0[i], p1[i])
		}
		// Path C: copy of A.
		c := New(n, k)
		c.CopyFrom(a)
		// Path D: sparse rebuild of a tree holding stale leaves.
		d := New(n, k)
		for i := 0; i < n; i++ {
			d.SetLeaf(i, rng.Float64(), rng.Float64())
		}
		d.ResetLeaves(live, l0, l1)
		for j := range a.nodes {
			if a.nodes[j] != b.nodes[j] || a.nodes[j] != c.nodes[j] || a.nodes[j] != d.nodes[j] {
				t.Fatalf("trial %d: node %d diverged: bulk=%v incremental=%v copy=%v sparse=%v",
					trial, j, a.nodes[j], b.nodes[j], c.nodes[j], d.nodes[j])
			}
		}
	}
}

// TestSparseBuildMatchesDense checks ResetLeaves over a random live subset
// node for node against a fresh tree given the same leaves by SetLeaf, on
// trees large enough for whole identity subtrees, with tiny live sets and
// empty ones.
func TestSparseBuildMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		k := rng.Intn(8)
		keep := rng.Float64()
		var live []int32
		var p0, p1 []float64
		ref := New(n, k)
		for i := 0; i < n; i++ {
			if rng.Float64() < keep {
				v0, v1 := leafValue(rng), leafValue(rng)
				live = append(live, int32(i))
				p0, p1 = append(p0, v0), append(p1, v1)
				ref.SetLeaf(i, v0, v1)
			}
		}
		got := New(n, k)
		for i := 0; i < n; i++ { // stale state the build must clear
			got.SetLeaf(i, rng.Float64(), rng.Float64())
		}
		got.ResetLeaves(live, p0, p1)
		for j := range ref.nodes {
			if math.Float64bits(got.nodes[j]) != math.Float64bits(ref.nodes[j]) {
				t.Fatalf("trial %d (n=%d k=%d live=%d): node word %d = %v, SetLeaf reference %v",
					trial, n, k, len(live), j, got.nodes[j], ref.nodes[j])
			}
		}
	}
}

func TestResetLeavesRejectsUnsortedPositions(t *testing.T) {
	for _, pos := range [][]int32{{1, 0}, {2, 2}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for positions %v", pos)
				}
			}()
			New(4, 2).ResetLeaves(pos, make([]float64, len(pos)), make([]float64, len(pos)))
		}()
	}
}

// leafSpecials are adversarial values from the leaf domain (finite, ≥ +0):
// zero, one, subnormals, and α/M fractions that round.
var leafSpecials = []float64{
	0, 1, math.SmallestNonzeroFloat64, 0x1p-1060, 0x1p-1022,
	1.0 / 3, 2.0 / 3, 1.0 / 7, 6.0 / 7, 1.0 / 25, 24.0 / 25, 0.1, 0.9,
}

// leafValue draws a leaf-domain value: a special half the time, otherwise
// uniform in [0, 1).
func leafValue(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return leafSpecials[rng.Intn(len(leafSpecials))]
	}
	return rng.Float64()
}

// TestRecomputeMatchesReference checks the K = 3 kernel against the generic
// convolution loop, Float64bits equal, over child pairs drawn from the leaf
// domain and over products of them (internal nodes several levels up, where
// subnormals and rounding residue accumulate).
func TestRecomputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	kernel, ref := New(2, 3), New(2, 3)
	for trial := 0; trial < 20000; trial++ {
		ch := kernel.nodes[8:16]
		for j := range ch {
			switch rng.Intn(3) {
			case 0:
				ch[j] = leafValue(rng)
			case 1: // a deep node's coefficient: a product of leaf values
				ch[j] = leafValue(rng) * leafValue(rng) * leafValue(rng)
			default:
				ch[j] = 0
			}
		}
		copy(ref.nodes[8:16], ch)
		kernel.recompute3(1)
		ref.recomputeGeneric(1)
		for c := 0; c < 4; c++ {
			if math.Float64bits(kernel.nodes[4+c]) != math.Float64bits(ref.nodes[4+c]) {
				t.Fatalf("trial %d: children %v: kernel[%d] = %v, generic %v",
					trial, ch, c, kernel.nodes[4+c], ref.nodes[4+c])
			}
		}
	}
}

// BenchmarkRecompute measures one SetLeaf — O(log n) node recomputes — on a
// 512-leaf tree, the per-candidate tree cost of an SS-DC scan, for K = 1,
// 3 (the kernel) and 7.
func BenchmarkRecompute(b *testing.B) {
	for _, k := range []int{1, 3, 7} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			const n = 512
			tr := New(n, k)
			for i := 0; i < n; i++ {
				tr.SetLeaf(i, rng.Float64(), rng.Float64())
			}
			i := 0
			for b.Loop() {
				tr.SetLeaf(i, 0.25, 0.75)
				i = (i + 97) % n
			}
		})
	}
}

func TestRootSumProperty(t *testing.T) {
	// If every leaf is a probability pair (p, 1−p) and k ≥ n, the root
	// coefficients sum to 1 (a full binomial distribution).
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		n := len(raw)
		tr := New(n, n)
		for i, r := range raw {
			p := math.Abs(math.Mod(r, 1))
			if math.IsNaN(p) || math.IsInf(p, 0) {
				p = 0.5
			}
			tr.SetLeaf(i, p, 1-p)
		}
		sum := 0.0
		for _, v := range tr.Root() {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
