package segtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseTree is the dense segment tree the collapsed Tree replaced, kept as
// the reference its roots are compared against bit for bit: a padded
// power-of-two heap over n leaves, every leaf set by SetLeaf and every
// ancestor recomputed by the generic convolution.
type denseTree struct {
	n, k, size int
	nodes      []float64
}

// newDense returns a dense tree over n identity leaves.
func newDense(n, k int) *denseTree {
	size := 1
	for size < n {
		size *= 2
	}
	t := &denseTree{n: n, k: k, size: size, nodes: make([]float64, 2*size*(k+1))}
	for idx := 1; idx < 2*size; idx++ {
		t.nodes[idx*(k+1)] = 1
	}
	return t
}

func (t *denseTree) node(idx int) []float64 {
	w := t.k + 1
	return t.nodes[idx*w : idx*w+w]
}

func (t *denseTree) setLeaf(i int, p0, p1 float64) {
	leaf := t.node(t.size + i)
	clear(leaf)
	leaf[0] = p0
	if t.k >= 1 {
		leaf[1] = p1
	}
	for idx := (t.size + i) / 2; idx >= 1; idx /= 2 {
		l, r, dst := t.node(2*idx), t.node(2*idx+1), t.node(idx)
		for c := t.k; c >= 0; c-- {
			s := 0.0
			for a := 0; a <= c; a++ {
				if l[a] == 0 {
					continue
				}
				s += float64(l[a] * r[c-a])
			}
			dst[c] = s
		}
	}
}

func (t *denseTree) root() []float64 { return t.node(1) }

// SetLeaf sets the leaf in slot s to [p0, p1, 0, ...] and recomputes its
// path node by node: the plain walk that SetLeafProbe fuses with its probe
// chain, kept as the reference SetLeafProbe is tested against (a forcing
// SetLeaf, the root read, then a restoring SetLeaf).
func (t *Tree) SetLeaf(s int, p0, p1 float64) {
	leaf := t.node(s)
	leaf[0] = p0
	if t.k >= 1 {
		leaf[1] = p1
	}
	for s > 0 {
		q := (s - 1) >> 1
		if t.k == 3 {
			t.recompute3(q)
		} else {
			t.recomputeGeneric(q)
		}
		s = int(t.up[q])
	}
}

// clone returns a copy of t with its own storage.
func (t *Tree) clone() *Tree {
	return &Tree{k: t.k, up: t.up, nodes: append([]float64(nil), t.nodes...)}
}

// checkProbe runs SetLeafProbe on tr and the reference sequence — SetLeaf
// to [f0, f1], read the root, SetLeaf to [p0, p1] — on a copy, and
// reports a mismatch in the probe or in any node afterwards, by bits. It
// returns the probe.
func checkProbe(tr *Tree, s int, f0, f1, p0, p1 float64) ([]float64, error) {
	ref := tr.clone()
	ref.SetLeaf(s, f0, f1)
	want := append([]float64(nil), ref.Root()...)
	ref.SetLeaf(s, p0, p1)
	probe := make([]float64, tr.k+1)
	tr.SetLeafProbe(s, f0, f1, p0, p1, probe)
	if !sameBits(probe, want) {
		return nil, fmt.Errorf("SetLeafProbe(%d, %v, %v, %v, %v): probe %v, forced root %v", s, f0, f1, p0, p1, probe, want)
	}
	if !sameBits(tr.nodes, ref.nodes) {
		return nil, fmt.Errorf("SetLeafProbe(%d, %v, %v, %v, %v): nodes %v, restored reference %v", s, f0, f1, p0, p1, tr.nodes, ref.nodes)
	}
	return probe, nil
}

// collapsed builds a Tree over the given dense leaf indices (ascending) with
// leaf values p0, p1, returning it with each leaf's slot.
func collapsed(k int, live []int32, p0, p1 []float64) (*Tree, []int32) {
	t := NewTree(k)
	slots := build(t, live, p0, p1)
	return t, slots
}

// build gives t the shape over live and the leaf values, and returns the
// leaves' slots.
func build(t *Tree, live []int32, p0, p1 []float64) []int32 {
	slots := append([]int32(nil), live...)
	sh := NewShape(slots, make([]int32, max(len(live)-1, 0)))
	t.Reset(sh)
	for j, s := range slots {
		t.InitLeaf(int(s), p0[j], p1[j])
	}
	t.Build()
	return slots
}

// sameBits reports whether a and b are equal coefficient for coefficient
// by Float64bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

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

// randomLive draws a random live subset of n dense leaves with leaf-domain
// values.
func randomLive(rng *rand.Rand, n int, keep float64) (live []int32, p0, p1 []float64) {
	for i := 0; i < n; i++ {
		if rng.Float64() < keep {
			live = append(live, int32(i))
			p0, p1 = append(p0, leafValue(rng)), append(p1, leafValue(rng))
		}
	}
	return live, p0, p1
}

func TestRootMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		k := 1 + rng.Intn(4)
		live := make([]int32, n)
		p0, p1 := make([]float64, n), make([]float64, n)
		leaves := make([][2]float64, n)
		for i := range leaves {
			live[i] = int32(i)
			p0[i], p1[i] = rng.Float64(), rng.Float64()
			leaves[i] = [2]float64{p0[i], p1[i]}
		}
		tr, _ := collapsed(k, live, p0, p1)
		want := refConvolve(leaves, k)
		if !almostEq(tr.Root(), want, 1e-12) {
			t.Fatalf("trial %d (n=%d k=%d): root %v want %v", trial, n, k, tr.Root(), want)
		}
	}
}

func TestIncrementalUpdatesMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, k := 9, 3
	live := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8}
	leaves := make([][2]float64, n)
	p0, p1 := make([]float64, n), make([]float64, n)
	for i := range leaves {
		p0[i], p1[i] = rng.Float64(), rng.Float64()
		leaves[i] = [2]float64{p0[i], p1[i]}
	}
	tr, slots := collapsed(k, live, p0, p1)
	for step := 0; step < 200; step++ {
		i := rng.Intn(n)
		leaves[i] = [2]float64{rng.Float64(), rng.Float64()}
		tr.SetLeaf(int(slots[i]), leaves[i][0], leaves[i][1])
		want := refConvolve(leaves, k)
		if !almostEq(tr.Root(), want, 1e-12) {
			t.Fatalf("step %d: root %v want %v", step, tr.Root(), want)
		}
	}
}

// TestNewShapeKeepsBranchingNodes pins the layout on small cases: only the
// dense tree's branching nodes survive, children sit in adjacent pairs
// numbered in preorder, and each leaf learns its slot.
func TestNewShapeKeepsBranchingNodes(t *testing.T) {
	for _, tc := range []struct {
		live, slots, up []int32
	}{
		{live: nil, slots: nil, up: nil},
		{live: []int32{5}, slots: []int32{0}, up: nil},
		{live: []int32{0, 5}, slots: []int32{1, 2}, up: []int32{0}},
		// 0 and 1 branch below 4: the root's left child is their parent.
		{live: []int32{0, 1, 4}, slots: []int32{3, 4, 2}, up: []int32{0, 1}},
		// A full dense tree over four leaves keeps every node.
		{live: []int32{0, 1, 2, 3}, slots: []int32{3, 4, 5, 6}, up: []int32{0, 1, 2}},
		// 6 and 7 branch at bit 0; 2 joins them at bit 2.
		{live: []int32{2, 6, 7}, slots: []int32{1, 3, 4}, up: []int32{0, 2}},
	} {
		slots := append([]int32(nil), tc.live...)
		sh := NewShape(slots, make([]int32, max(len(tc.live)-1, 0)))
		if fmt.Sprint(slots) != fmt.Sprint(tc.slots) || fmt.Sprint(sh.up) != fmt.Sprint(tc.up) {
			t.Errorf("live %v: slots %v up %v, want slots %v up %v", tc.live, slots, sh.up, tc.slots, tc.up)
		}
		if want := max(2*len(tc.live)-1, 1); sh.Slots() != want {
			t.Errorf("live %v: %d slots, want %d", tc.live, sh.Slots(), want)
		}
	}
}

// TestResetReusesStorage checks that Reset gives a used tree a new shape:
// a bulk build over five leaves, then an empty shape (the identity root),
// then one leaf (the root is that leaf).
func TestResetReusesStorage(t *testing.T) {
	n, k := 5, 2
	p0 := []float64{1, 2, 3, 4, 5}
	p1 := []float64{5, 4, 3, 2, 1}
	tr, _ := collapsed(k, []int32{0, 1, 2, 3, 4}, p0, p1)
	leaves := make([][2]float64, n)
	for i := range leaves {
		leaves[i] = [2]float64{p0[i], p1[i]}
	}
	if !almostEq(tr.Root(), refConvolve(leaves, k), 1e-9) {
		t.Fatalf("root after build = %v", tr.Root())
	}
	build(tr, nil, nil, nil)
	if root := tr.Root(); root[0] != 1 || root[1] != 0 || root[2] != 0 {
		t.Fatalf("identity root = %v", root)
	}
	build(tr, []int32{3}, []float64{0.25}, []float64{0.75})
	if root := tr.Root(); root[0] != 0.25 || root[1] != 0.75 || root[2] != 0 {
		t.Fatalf("one-leaf root = %v", root)
	}
}

func TestLeafReadback(t *testing.T) {
	tr, slots := collapsed(2, []int32{0, 1, 2}, []float64{1, 1, 1}, []float64{0, 0, 0})
	tr.SetLeaf(int(slots[1]), 0.25, 0.75)
	if leaf := tr.node(int(slots[1])); leaf[0] != 0.25 || leaf[1] != 0.75 || leaf[2] != 0 {
		t.Fatalf("leaf = %v", leaf)
	}
}

func TestSetLeafOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range leaf")
		}
	}()
	tr, _ := collapsed(1, []int32{0, 1}, []float64{1, 1}, []float64{0, 0})
	tr.SetLeaf(5, 0, 0)
}

func TestNewShapeRejectsUnsortedLeaves(t *testing.T) {
	for _, live := range [][]int32{{1, 0}, {2, 2}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for leaves %v", live)
				}
			}()
			NewShape(live, make([]int32, len(live)-1))
		}()
	}
}

func TestEmptyTreeIsIdentity(t *testing.T) {
	tr, _ := collapsed(3, nil, nil, nil)
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
	half := []float64{0.5, 0.5, 0.5, 0.5}
	tr, _ := collapsed(0, []int32{0, 1, 2, 3}, half, half) // p1 is dropped at k=0
	if root := tr.Root(); math.Abs(root[0]-0.0625) > 1e-15 {
		t.Fatalf("k=0 root = %v", root)
	}
}

// TestPathIndependence pins the purity invariant the SS-DC scan relies on:
// node values depend only on the shape and the final leaf state, bit for
// bit, no matter how that state was reached — a bulk Build, incremental
// SetLeaf paths with detours, or a Build into storage another shape left
// stale.
func TestPathIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(4)
		live, p0, p1 := randomLive(rng, n, rng.Float64())
		// Path A: bulk build.
		a, slots := collapsed(k, live, p0, p1)
		// Path B: a build of other values, then incremental updates in
		// random order with detours.
		b := NewTree(k)
		build(b, live, make([]float64, len(live)), make([]float64, len(live)))
		for _, j := range rng.Perm(len(live)) {
			b.SetLeaf(int(slots[j]), leafValue(rng), leafValue(rng)) // detour
			b.SetLeaf(int(slots[j]), p0[j], p1[j])
		}
		for _, j := range rng.Perm(len(live)) { // redundant re-application
			b.SetLeaf(int(slots[j]), p0[j], p1[j])
		}
		// Path C: a build into storage another shape filled.
		c := NewTree(k)
		other, o0, o1 := randomLive(rng, 1+rng.Intn(60), 0.8)
		build(c, other, o0, o1)
		build(c, live, p0, p1)
		if len(a.nodes) != len(b.nodes) || len(a.nodes) != len(c.nodes) {
			t.Fatalf("trial %d: node counts %d / %d / %d", trial, len(a.nodes), len(b.nodes), len(c.nodes))
		}
		for j := range a.nodes {
			if a.nodes[j] != b.nodes[j] || a.nodes[j] != c.nodes[j] {
				t.Fatalf("trial %d: node word %d diverged: bulk=%v incremental=%v stale=%v",
					trial, j, a.nodes[j], b.nodes[j], c.nodes[j])
			}
		}
	}
}

// TestCopyFromContinuesAsSource checks the tree copy the hypothesis tape
// snapshots by: a copy into storage another shape left larger or smaller
// holds the source's nodes bit for bit, and the same SetLeafProbe sequence
// on source and copy yields the same probes and nodes, while neither
// disturbs the other's storage.
func TestCopyFromContinuesAsSource(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(8)
		live, p0, p1 := randomLive(rng, 1+rng.Intn(60), rng.Float64())
		if len(live) == 0 {
			continue
		}
		src, slots := collapsed(k, live, p0, p1)
		cp := NewTree(k)
		other, o0, o1 := randomLive(rng, 1+rng.Intn(80), 0.7)
		build(cp, other, o0, o1)
		cp.CopyFrom(src)
		if !sameBits(cp.nodes, src.nodes) {
			t.Fatalf("trial %d: copy %v, source %v", trial, cp.nodes, src.nodes)
		}
		want, got := make([]float64, k+1), make([]float64, k+1)
		for step := 0; step < 20; step++ {
			s := int(slots[rng.Intn(len(slots))])
			f0, f1, q0, q1 := leafValue(rng), leafValue(rng), leafValue(rng), leafValue(rng)
			src.SetLeafProbe(s, f0, f1, q0, q1, want)
			cp.SetLeafProbe(s, f0, f1, q0, q1, got)
			if !sameBits(got, want) || !sameBits(cp.nodes, src.nodes) {
				t.Fatalf("trial %d step %d: copy diverged from its source", trial, step)
			}
		}
		// Writes to the copy leave the source alone.
		before := append([]float64(nil), src.nodes...)
		cp.SetLeafProbe(int(slots[0]), 1, 0, 0.5, 0.5, got)
		if !sameBits(src.nodes, before) {
			t.Fatalf("trial %d: a write to the copy changed the source", trial)
		}
	}
}

// TestSparseBuildMatchesDense checks the collapsed tree's root bit for bit
// against the dense reference given the same leaves, on trees large enough
// for whole identity subtrees and long collapsed chains, with tiny live
// sets and empty ones.
func TestSparseBuildMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		k := rng.Intn(8)
		live, p0, p1 := randomLive(rng, n, rng.Float64())
		ref := newDense(n, k)
		for j, i := range live {
			ref.setLeaf(int(i), p0[j], p1[j])
		}
		got, _ := collapsed(k, live, p0, p1)
		if !sameBits(got.Root(), ref.root()) {
			t.Fatalf("trial %d (n=%d k=%d live=%d): root %v, dense reference %v",
				trial, n, k, len(live), got.Root(), ref.root())
		}
	}
}

// TestShiftedLeafShiftsRoot pins the identity the hypothesis scan reads its
// "pre" root by: with one leaf [0, 1] instead of [1, 0], the root is the
// [1, 0] root shifted up one degree, bit for bit, on the dense tree and the
// collapsed one alike.
func TestShiftedLeafShiftsRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(7)
		live, p0, p1 := randomLive(rng, n, 0.5)
		if len(live) == 0 {
			continue
		}
		row := rng.Intn(len(live))
		post, pre := newDense(n, k), newDense(n, k)
		for j, i := range live {
			switch {
			case j != row:
				post.setLeaf(int(i), p0[j], p1[j])
				pre.setLeaf(int(i), p0[j], p1[j])
			default:
				post.setLeaf(int(i), 1, 0)
				pre.setLeaf(int(i), 0, 1)
			}
		}
		p0[row], p1[row] = 1, 0
		tr, _ := collapsed(k, live, p0, p1)
		shifted := append([]float64{0}, tr.Root()[:k]...)
		if !sameBits(shifted, pre.root()) || !sameBits(tr.Root(), post.root()) {
			t.Fatalf("trial %d (n=%d k=%d): shifted %v, pre tree %v", trial, n, k, shifted, pre.root())
		}
	}
}

// TestSetLeafProbeMatchesSetLeaf checks SetLeafProbe against the two-walk
// sequence it replaces — SetLeaf(force), Root, SetLeaf(restore) — by bits,
// the probe and every node afterwards, for K = 0..7 on one live leaf (an
// empty path: the leaf is the root), two, and many, dense or sparse over
// the dense tree, with leaves from the SS-DC domain: a scan's forced leaf
// [0, 1/M] probed while the leaf is restored to [α/M, 1−α/M], and the
// extremes 0 and 1.
func TestSetLeafProbeMatchesSetLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		name string
		n    int
		keep float64
	}{
		{"one", 1, 1},
		{"one-of-40", 40, 0},
		{"two", 2, 1},
		{"sparse", 70, 0.2},
		{"dense", 64, 1},
	} {
		for k := 0; k <= 7; k++ {
			live, p0, p1 := randomLive(rng, tc.n, tc.keep)
			if len(live) == 0 {
				live, p0, p1 = []int32{int32(rng.Intn(tc.n))}, []float64{leafValue(rng)}, []float64{leafValue(rng)}
			}
			tr, slots := collapsed(k, live, p0, p1)
			for step := 0; step < 200; step++ {
				j := rng.Intn(len(live))
				m := 1 + rng.Intn(25)
				a := float64(1+rng.Intn(m)) / float64(m)
				f0, f1, q0, q1 := 0.0, 1/float64(m), a, 1-a
				switch rng.Intn(4) {
				case 0: // a pinned row: M = 1
					f0, f1, q0, q1 = 0, 1, 1, 0
				case 1:
					f0, f1, q0, q1 = leafValue(rng), leafValue(rng), leafValue(rng), leafValue(rng)
				}
				if _, err := checkProbe(tr, int(slots[j]), f0, f1, q0, q1); err != nil {
					t.Fatalf("%s K=%d live=%d step %d: %v", tc.name, k, len(live), step, err)
				}
			}
		}
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
	two := []int32{0, 1}
	kernel, _ := collapsed(3, two, []float64{1, 1}, []float64{0, 0})
	ref, _ := collapsed(3, two, []float64{1, 1}, []float64{0, 0})
	for trial := 0; trial < 20000; trial++ {
		ch := kernel.nodes[4:12]
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
		copy(ref.nodes[4:12], ch)
		kernel.recompute3(0)
		ref.recomputeGeneric(0)
		if !sameBits(kernel.Root(), ref.Root()) {
			t.Fatalf("trial %d: children %v: kernel %v, generic %v", trial, ch, kernel.Root(), ref.Root())
		}
	}
}

// FuzzCollapsedTree decodes a dense size, a K, a live set and leaf values,
// then a sequence of updates, each a SetLeaf or (odd op byte) a
// SetLeafProbe, and compares every root coefficient of the collapsed tree
// by bits against the dense reference after the build and after each
// update, a probe also against the dense root with the forced leaf and
// against the SetLeaf sequence it replaces (checkProbe), and the updated
// tree against a fresh build of its final leaves.
func FuzzCollapsedTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0xff})                          // one dense leaf, live
	f.Add([]byte{12, 2, 0x00, 0x00, 5, 3, 9})          // thirteen leaves, none live
	f.Add([]byte{36, 2, 0x55, 0xaa, 0x0f, 0xf0, 1, 7}) // K = 3, half live
	f.Add([]byte{69, 6, 0xff, 0xff, 0x81, 0x42, 0x24, 0x18, 0xff, 0x01, 3, 0xff, 2, 4, 6, 8})
	f.Add([]byte{4, 0, 0x10, 0, 0xff, 0xff}) // K = 1, one live leaf of five
	// K = 3, four live of five: two probes, then a SetLeaf.
	f.Add([]byte{4, 2, 0x1b, 10, 0x81, 50, 60, 0x88, 0x89, 127, 0, 3, 0, 0x84, 40, 80, 5, 0, 63, 0x8a, 0x8b, 2, 9, 9})
	f.Add([]byte{0, 4, 0xff, 30, 40, 1, 0, 127, 20, 90}) // K = 5, a probe of the root leaf
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		value := func() float64 {
			b := next()
			if b&0x80 != 0 {
				return leafSpecials[b%len(leafSpecials)]
			}
			return float64(b) / 127 // [0, 1]
		}
		n := 1 + next()%70
		k := 1 + next()%7
		var live []int32
		for i := 0; i < n; i += 8 {
			mask := next()
			for b := 0; b < 8 && i+b < n; b++ {
				if mask>>b&1 != 0 {
					live = append(live, int32(i+b))
				}
			}
		}
		p0, p1 := make([]float64, len(live)), make([]float64, len(live))
		ref := newDense(n, k)
		for j, i := range live {
			p0[j], p1[j] = value(), value()
			ref.setLeaf(int(i), p0[j], p1[j])
		}
		tr, slots := collapsed(k, live, p0, p1)
		if !sameBits(tr.Root(), ref.root()) {
			t.Fatalf("n=%d k=%d live=%v: built root %v, dense %v", n, k, live, tr.Root(), ref.root())
		}
		for len(data) > 0 && len(live) > 0 {
			op := next()
			j := (op >> 1) % len(live)
			if op&1 != 0 {
				f0, f1 := value(), value()
				p0[j], p1[j] = value(), value()
				probe, err := checkProbe(tr, int(slots[j]), f0, f1, p0[j], p1[j])
				if err != nil {
					t.Fatalf("n=%d k=%d live=%v: %v", n, k, live, err)
				}
				ref.setLeaf(int(live[j]), f0, f1)
				if !sameBits(probe, ref.root()) {
					t.Fatalf("n=%d k=%d live=%v: probe of %d %v, dense %v", n, k, live, live[j], probe, ref.root())
				}
			} else {
				p0[j], p1[j] = value(), value()
				tr.SetLeaf(int(slots[j]), p0[j], p1[j])
			}
			ref.setLeaf(int(live[j]), p0[j], p1[j])
			if !sameBits(tr.Root(), ref.root()) {
				t.Fatalf("n=%d k=%d live=%v: root after SetLeaf(%d) %v, dense %v", n, k, live, live[j], tr.Root(), ref.root())
			}
		}
		fresh, _ := collapsed(k, live, p0, p1)
		if !sameBits(fresh.nodes, tr.nodes) {
			t.Fatalf("n=%d k=%d live=%v: updated nodes %v, fresh build %v", n, k, live, tr.nodes, fresh.nodes)
		}
	})
}

// BenchmarkRecompute measures one path of node recomputes (the reference
// SetLeaf) for K = 1, 3 (the kernel) and 7: on a tree with all 512 leaves
// live (a 9-node path, as in a dense tree) and, for K = 3, on 36 live
// leaves spread over 512, the shape of a validation engine's label tree on
// the loadbench data (sparse/K3). probe/K3 is one SetLeafProbe on that
// sparse shape — the per-position tree cost of an SS-DC scan, which walks
// the path once for both the restored leaf and the forced-leaf root.
func BenchmarkRecompute(b *testing.B) {
	const n = 512
	run := func(b *testing.B, k int, keep float64, probe bool) {
		rng := rand.New(rand.NewSource(11))
		var live []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < keep {
				live = append(live, int32(i))
			}
		}
		p0, p1 := make([]float64, len(live)), make([]float64, len(live))
		for j := range live {
			p0[j], p1[j] = rng.Float64(), rng.Float64()
		}
		tr, slots := collapsed(k, live, p0, p1)
		buf := make([]float64, k+1)
		j := 0
		for b.Loop() {
			if probe {
				tr.SetLeafProbe(int(slots[j]), 0, 0.5, 0.25, 0.75, buf)
			} else {
				tr.SetLeaf(int(slots[j]), 0.25, 0.75)
			}
			j = (j + 97) % len(slots)
		}
	}
	for _, k := range []int{1, 3, 7} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) { run(b, k, 1, false) })
	}
	b.Run("sparse/K3", func(b *testing.B) { run(b, 3, 36.0/n, false) })
	b.Run("probe/K3", func(b *testing.B) { run(b, 3, 36.0/n, true) })
}

func TestRootSumProperty(t *testing.T) {
	// If every leaf is a probability pair (p, 1−p) and k ≥ n, the root
	// coefficients sum to 1 (a full binomial distribution).
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		n := len(raw)
		live := make([]int32, n)
		p0, p1 := make([]float64, n), make([]float64, n)
		for i, r := range raw {
			p := math.Abs(math.Mod(r, 1))
			if math.IsNaN(p) || math.IsInf(p, 0) {
				p = 0.5
			}
			live[i], p0[i], p1[i] = int32(i), p, 1-p
		}
		tr, _ := collapsed(n, live, p0, p1)
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
