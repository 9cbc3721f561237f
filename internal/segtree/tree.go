// Package segtree implements the divide-and-conquer dynamic-programming tree
// from appendix A.2 of the paper: a segment tree whose leaves hold degree-1
// polynomials (the per-row "in / not in the top-K" weights) and whose
// internal nodes hold K-truncated polynomial products
//
//	T(c, a, b) = Σ_k T(k, a, m) · T(c−k, m+1, b)
//
// so the root coefficient T(c, 1, N) is the total weight of choosing exactly
// c rows into the top-K. Updating one leaf costs O(K² · depth); reading the
// root is O(1). SetLeafProbe, the one leaf update, also returns in the same
// walk the root the tree would have with that leaf set to a second value:
// the SS-DC scan restores a row's leaf and reads the root with the row
// forced onto the boundary in one pass.
//
// # Path-collapsed trees
//
// The dense tree is a padded power-of-two heap over every row of a label,
// but SS-DC sets only a few leaves to anything but the identity
// [1, 0, ..., 0]: the live rows, whose candidates reach a top-K boundary.
// A Tree keeps, of the dense tree over those leaves, only the live leaves
// and the branching nodes — the nodes with a live leaf under both children —
// and collapses every other node. A collapsed node's value is its one live
// child's value times identities, which is that value exactly (see "Tree
// arithmetic"), and a node over identity leaves only is the identity; so
// each branching node convolves the same two values, left before right, as
// its dense counterpart, and the root carries the dense root's bits. A
// SetLeafProbe walks the leaf's branching ancestors only: at most
// min(live−1, log₂ N) nodes. NewShape derives the structure from the live
// leaves' dense indices; a Tree is storage for any shape.
//
// # Purity invariant
//
// Every internal node is always the exact truncated convolution of its two
// children (Build computes every one, and SetLeafProbe recomputes the nodes
// on the changed leaf's path), so node values — the root above all — are a
// pure function of the shape and the current leaf values: any sequence of
// Build and SetLeafProbe calls that ends in the same leaf state yields
// bit-identical node values, regardless of the path taken or of what the
// storage held before. The SS-DC scan (internal/core) depends on exactly
// this property to bulk-build its trees at the first position with tree
// work and still match a leaf-by-leaf scan bit for bit; TestPathIndependence
// pins it. Purity also lets one tree stand for many that differ from it in
// one leaf: a tree with leaf r set otherwise differs from t only on r's
// path, so a Path holding r's chain with its own leaf value, the siblings
// read from t, holds every node that tree would. After t's leaf s changes,
// the chain changes only from the lowest common ancestor (LCA) of r and s
// up: the nodes below it do not contain s. Rejoin recomputes exactly those,
// and the hypothesis group pass (internal/core) serves a group of
// hypothesis rows, each with its own leaf, from one walk of the plain tree
// per scan position that way. Once t's leaf r holds the same value as the
// chain's, the two trees are one: the pass then drops the row's chain and
// reads the plain tree for it, with no Rejoin.
//
// # Tree arithmetic
//
// SS-DC's leaves come from one domain: α/M, 1−α/M, 1/M, 0 and 1 — finite
// values ≥ +0 — and every node is built from them by products and sums,
// which keep the domain. Five facts follow, and the answer bits rest on
// them:
//
//   - A product with the identity [1, 0, ..., 0] is exact: 1·x = x and
//     x + (+0) = x for x ≥ +0. So a node over identity leaves only is the
//     identity, and a node with one identity child equals its other child:
//     the collapse above changes no bit.
//   - Replacing one leaf [1, 0] by [0, 1] shifts every node on its path up
//     one degree: each new term is an old product, summed in the old order,
//     plus +0 terms (the shifted child's zero coefficient times the
//     sibling). So the root with that leaf [0, 1] is [0, r₀, ..., r_{K−1}]
//     for the root r with it [1, 0], exactly; internal/core's hypothesis
//     scan reads its "pre" root that way instead of keeping a second tree.
//   - By purity, the root with one leaf set to [f0, f1] is the convolution,
//     bottom up, of [f0, f1] with the siblings on that leaf's path, each
//     pair left before right, as the nodes are. So SetLeafProbe, which
//     writes the leaf's new value [p0, p1] and recomputes its path, carries
//     a second chain from [f0, f1] through the same siblings in the same
//     order (in registers for K = 3, in the probe buffer otherwise) and
//     returns the root that setting the leaf to [f0, f1] would have
//     produced, bit for bit, without writing it. A leaf that is the root
//     has an empty path, and its probe is [f0, f1] itself. The plain leaf
//     update, SetLeaf — two of which, forcing and then restoring, one
//     probe replaces — lives on only as the test reference (tree_test.go).
//   - The zero-skip in the generic convolution drops only +0 terms, which
//     leave the sum unchanged; so the K = 3 kernel (the paper's K, and the
//     serving default), which keeps all eight child coefficients in
//     registers and skips nothing, computes the same bits from the same
//     products in the same order.
//   - No product is fused with the addition that consumes it: each is
//     rounded explicitly (float64(a*b)), since Go may otherwise emit a
//     fused multiply-add on arm64 (go1.24 does not fuse on amd64), whose
//     single rounding gives a different last bit. scripts/fma_check.sh
//     checks the compiled arm64 code for fused instructions.
package segtree

import "math/bits"

// Shape is the structure of a path-collapsed tree over n live leaves. It
// has 2n−1 slots (one when n = 0): slot 0 is the root, and slots 2q+1 and
// 2q+2 are pair q, the left and right child of the node in slot up[q],
// whose level in the dense tree (the height of its dense subtree) is
// level[q].
// Children are allocated in adjacent pairs so the K = 3 kernel reads its
// eight coefficients from one contiguous run, and pairs are numbered in
// preorder, so every node's pair follows its parent's.
type Shape struct {
	up    []int32
	level []uint8
}

// NewShape derives the collapsed shape over len(leaves) live leaves of a
// dense tree. On entry leaves[j] is the dense index of the j-th live leaf,
// strictly ascending; on return it is that leaf's slot. up and level must
// have room for len(leaves)−1 entries; the shape keeps them.
func NewShape(leaves, up []int32, level []uint8) Shape {
	n := len(leaves)
	if n == 0 {
		return Shape{}
	}
	for j, p := range leaves {
		if p < 0 || (j > 0 && p <= leaves[j-1]) {
			panic("segtree: NewShape leaves not strictly ascending non-negative indices")
		}
	}
	b := shapeBuilder{leaves: leaves, up: up[:n-1], level: level[:n-1]}
	b.node(0, n-1, 0)
	return Shape{up: b.up, level: b.level}
}

// Slots returns the number of slots a tree of this shape uses.
func (s Shape) Slots() int { return 2*len(s.up) + 1 }

// shapeBuilder assigns slots in preorder over the branching structure of a
// run of dense leaf indices.
type shapeBuilder struct {
	leaves []int32
	up     []int32
	level  []uint8
	next   int32 // next unallocated pair
}

// node lays out the subtree over leaves[lo..hi] rooted at slot. The dense
// subtree over a range branches at the highest bit where its first and last
// index differ; its right child's leaves are those with that bit set, and
// the first of them starts the right half. Leaves left of lo already hold
// their slots and the ones from lo on still hold indices, so the binary
// search reads indices only. The recursion depth is at most 32: each level
// strictly lowers the branching bit.
func (b *shapeBuilder) node(lo, hi int, slot int32) {
	for lo < hi {
		h := LCALevel(b.leaves[lo], b.leaves[hi])
		mid := b.leaves[hi] >> h << h // smallest index in the right child
		l, r := lo+1, hi
		for l < r {
			if m := int(uint(l+r) >> 1); b.leaves[m] >= mid {
				r = m
			} else {
				l = m + 1
			}
		}
		q := b.next
		b.next++
		b.up[q], b.level[q] = slot, uint8(h)
		b.node(lo, l-1, 2*q+1)
		lo, slot = l, 2*q+2
	}
	b.leaves[lo] = slot
}

// LCALevel returns the dense level of the lowest common ancestor of the
// dense leaves a ≠ b: the highest bit where their indices differ. In a
// collapsed tree over both, that ancestor is a branching node.
func LCALevel(a, b int32) int { return bits.Len32(uint32(a^b)) - 1 }

// Tree is a path-collapsed segment tree, each node storing a polynomial of
// k+1 coefficients. Its storage grows to the largest shape it is given and
// is reused across shapes.
type Tree struct {
	k     int
	up    []int32   // the current shape's pair parents
	level []uint8   // and their dense levels
	nodes []float64 // slot s holds coefficients [s·(k+1), (s+1)·(k+1))
}

// NewTree returns an empty tree of capacity k, to be given a shape by Reset.
func NewTree(k int) *Tree {
	if k < 0 {
		panic("segtree: negative capacity")
	}
	return &Tree{k: k}
}

// ApproxBytes returns the footprint of the tree's coefficient storage.
func (t *Tree) ApproxBytes() int64 { return int64(cap(t.nodes)) * 8 }

// node returns the coefficient slice of slot s.
func (t *Tree) node(s int) []float64 {
	w := t.k + 1
	return t.nodes[s*w : s*w+w]
}

// Reset gives the tree shape sh and makes slot 0 the identity, the root of
// a tree with no live leaf. Each of the shape's leaves must then be set by
// InitLeaf, and Build called, before the root is read: storage keeps
// whatever the previous shape left in it. O(K) plus any growth.
func (t *Tree) Reset(sh Shape) {
	t.up, t.level = sh.up, sh.level
	need := sh.Slots() * (t.k + 1)
	if cap(t.nodes) < need {
		t.nodes = append(t.nodes[:cap(t.nodes)], make([]float64, need-cap(t.nodes))...)
	}
	t.nodes = t.nodes[:need]
	root := t.node(0)
	clear(root)
	root[0] = 1
}

// InitLeaf sets the leaf in slot s to [p0, p1, 0, ...] without updating its
// ancestors; Build does that for every leaf at once.
func (t *Tree) InitLeaf(s int, p0, p1 float64) {
	leaf := t.node(s)
	leaf[0] = p0
	if t.k >= 1 {
		leaf[1] = p1
		clear(leaf[2:])
	}
}

// Build recomputes every internal node from the leaves, children before
// parents (pairs in reverse preorder). O(live·K²).
func (t *Tree) Build() {
	countConvs(len(t.up))
	if t.k == 3 {
		for q := len(t.up) - 1; q >= 0; q-- {
			t.recompute3(q)
		}
		return
	}
	for q := len(t.up) - 1; q >= 0; q-- {
		t.recomputeGeneric(q)
	}
}

// SetLeafProbe sets the leaf in slot s to [p0, p1, 0, ...] and updates its
// path to the root, and in the same walk writes into probe (K+1
// coefficients) the root the tree would have with that leaf [f0, f1, 0, ...]
// instead: a second chain, started from [f0, f1], convolved with the same
// siblings in the same order (see "Tree arithmetic"). The leaf's higher
// coefficients are still zero from InitLeaf, so only the first two are
// written. A leaf that is the root (one live leaf) has an empty path: probe
// is the leaf [f0, f1] itself. O(K² · depth).
func (t *Tree) SetLeafProbe(s int, f0, f1, p0, p1 float64, probe []float64) {
	leaf := t.node(s)
	probe = probe[:t.k+1]
	clear(probe)
	leaf[0], probe[0] = p0, f0
	if t.k >= 1 {
		leaf[1], probe[1] = p1, f1
	}
	// The kernel choice is hoisted out of the path loop, so the generic
	// path pays no per-node dispatch. Slot s belongs to pair (s−1)/2, whose
	// parent is up of that pair; an odd slot is the pair's left child.
	if t.k == 3 {
		t.probe3(s, probe)
		return
	}
	n := 0
	for s > 0 {
		q := (s - 1) >> 1
		l, r := t.node(2*q+1), t.node(2*q+2)
		convolve(l, r, t.node(int(t.up[q])))
		if s&1 != 0 {
			convolve(probe, r, probe)
		} else {
			convolve(l, probe, probe)
		}
		s = int(t.up[q])
		n++
	}
	countConvs(2 * n)
}

// probe3 is SetLeafProbe's path walk for K = 3: the probe chain stays in
// registers, and each pair's eight coefficients are loaded once for both
// the stored parent and the chain, which takes the walked child's place.
func (t *Tree) probe3(s int, probe []float64) {
	x0, x1, x2, x3 := probe[0], probe[1], probe[2], probe[3]
	n := 0
	for s > 0 {
		q := (s - 1) >> 1
		ch := t.nodes[8*q+4 : 8*q+12 : 8*q+12]
		l0, l1, l2, l3 := ch[0], ch[1], ch[2], ch[3]
		r0, r1, r2, r3 := ch[4], ch[5], ch[6], ch[7]
		p := 4 * int(t.up[q])
		dst := t.nodes[p : p+4 : p+4]
		dst[0], dst[1], dst[2], dst[3] = convolve3(l0, l1, l2, l3, r0, r1, r2, r3)
		if s&1 != 0 {
			x0, x1, x2, x3 = convolve3(x0, x1, x2, x3, r0, r1, r2, r3)
		} else {
			x0, x1, x2, x3 = convolve3(l0, l1, l2, l3, x0, x1, x2, x3)
		}
		s = int(t.up[q])
		n++
	}
	probe[0], probe[1], probe[2], probe[3] = x0, x1, x2, x3
	countConvs(2 * n)
}

// A Path is one leaf's ancestor chain in a Tree: the slots from the leaf up
// to the root, the leaf first and slot 0 last, and a polynomial of K+1
// coefficients per slot. Slots strictly decrease up a path (pairs are
// numbered in preorder, after their parent's), and the paths of two leaves
// meet at the leaves' LCA and share every slot above it. A Path's storage
// is reused across calls.
type Path struct {
	w int // coefficients per slot, K+1
	// at[h] is the index of the path's node at dense level h, for each
	// level a node of the path has; other entries are stale.
	at    [32]int8
	slots []int32
	vals  []float64
}

// Top returns the value at the path's root slot. It aliases the path's
// storage.
func (p *Path) Top() []float64 { return p.vals[len(p.vals)-p.w:] }

// ApproxBytes returns the footprint of the path's storage.
func (p *Path) ApproxBytes() int64 { return int64(cap(p.slots))*4 + int64(cap(p.vals))*8 }

// start empties p for a path of tree t from leaf s valued [f0, f1, 0, ...].
func (p *Path) start(t *Tree, s int, f0, f1 float64) {
	p.w = t.k + 1
	p.slots = append(p.slots[:0], int32(s))
	p.vals = append(p.vals[:0], f0)
	if t.k >= 1 {
		p.vals = append(p.vals, f1)
		for c := 2; c <= t.k; c++ {
			p.vals = append(p.vals, 0)
		}
	}
}

// SetLeafWalk is SetLeafProbe with its walk recorded in w: the slots from
// leaf s to the root and, at each, the probe chain's value — the value that
// slot would hold with the leaf [f0, f1, 0, ...] — so w.Top() is the probe.
// The new node values are the tree's own, at w's slots. Rejoin reads both.
// O(K² · depth).
func (t *Tree) SetLeafWalk(s int, f0, f1, p0, p1 float64, w *Path) {
	leaf := t.node(s)
	leaf[0] = p0
	if t.k >= 1 {
		leaf[1] = p1
	}
	w.start(t, s, f0, f1)
	if t.k == 3 {
		t.walk3(s, w)
		return
	}
	n := 0
	for s > 0 {
		q := (s - 1) >> 1
		l, r := t.node(2*q+1), t.node(2*q+2)
		convolve(l, r, t.node(int(t.up[q])))
		x := w.vals[len(w.vals)-w.w:]
		w.vals = append(w.vals, x...)
		y := w.vals[len(w.vals)-w.w:]
		if s&1 != 0 {
			convolve(y, r, y)
		} else {
			convolve(l, y, y)
		}
		s = int(t.up[q])
		w.at[t.level[q]] = int8(len(w.slots))
		w.slots = append(w.slots, int32(s))
		n++
	}
	countConvs(2 * n)
}

// walk3 is SetLeafWalk's path walk for K = 3: probe3 with each level's
// chain value appended to w.
func (t *Tree) walk3(s int, w *Path) {
	x0, x1, x2, x3 := w.vals[0], w.vals[1], 0.0, 0.0
	n := 0
	for s > 0 {
		q := (s - 1) >> 1
		ch := t.nodes[8*q+4 : 8*q+12 : 8*q+12]
		l0, l1, l2, l3 := ch[0], ch[1], ch[2], ch[3]
		r0, r1, r2, r3 := ch[4], ch[5], ch[6], ch[7]
		p := 4 * int(t.up[q])
		dst := t.nodes[p : p+4 : p+4]
		dst[0], dst[1], dst[2], dst[3] = convolve3(l0, l1, l2, l3, r0, r1, r2, r3)
		if s&1 != 0 {
			x0, x1, x2, x3 = convolve3(x0, x1, x2, x3, r0, r1, r2, r3)
		} else {
			x0, x1, x2, x3 = convolve3(l0, l1, l2, l3, x0, x1, x2, x3)
		}
		s = int(t.up[q])
		w.at[t.level[q]] = int8(len(w.slots))
		w.slots = append(w.slots, int32(s))
		w.vals = append(w.vals, x0, x1, x2, x3)
		n++
	}
	countConvs(2 * n)
}

// LeafPath sets h to leaf s's path with the leaf valued [f0, f1, 0, ...]
// and every other leaf as t holds it: at each ancestor, the node a tree
// with that leaf value would hold. It does not write t. It runs once per
// hypothesis row and pass, so the generic convolution serves every K (its
// bits are the K = 3 kernel's). O(K² · depth).
func (t *Tree) LeafPath(s int, f0, f1 float64, h *Path) {
	h.start(t, s, f0, f1)
	for s > 0 {
		q := (s - 1) >> 1
		s = int(t.up[q])
		h.at[t.level[q]] = int8(len(h.slots))
		h.slots = append(h.slots, int32(s))
		h.vals = append(h.vals, h.vals[len(h.vals)-h.w:]...)
	}
	t.climb(h, 1, nil, nil)
}

// Rejoin brings h, the path of a leaf r other than w's, up to date after
// the walk w set w's leaf s, and writes into probe (K+1 coefficients) the
// root a tree with r's leaf as h holds it and s forced to w's probe value
// would have; lca is the dense level of r and s's lowest common ancestor
// (LCALevel of their dense indices). Only the nodes from the LCA up
// contain s, so only they are recomputed, each from the same two children,
// left before right, as a full walk of that tree would convolve: at the
// LCA, h's child and the tree's s-side child, just updated; above it, h's
// child and the tree's sibling. The probe chain starts from w's chain at
// the LCA's s-side child and meets h's child at the LCA. O(K² · levels
// from the LCA up).
func (t *Tree) Rejoin(h, w *Path, lca int, probe []float64) {
	i, j := int(w.at[lca]), int(h.at[lca])
	if i < 1 || j < 1 || w.slots[i] != h.slots[j] {
		panic("segtree: Rejoin at a level that is not the paths' common ancestor")
	}
	x := w.vals[(i-1)*w.w : i*w.w]
	if t.k == 3 {
		t.rejoin3(h, j, x, probe)
		return
	}
	t.climb(h, j, x, probe[:h.w])
}

// climb recomputes h's values from index j ≥ 1 up, each the convolution of
// h's value below it with the tree's sibling of that value's slot, left
// before right. With probe non-nil it also carries a probe chain into
// probe: x, the other child of h's slot j, convolved there with h's value
// below, then with the tree's siblings above.
func (t *Tree) climb(h *Path, j int, x, probe []float64) {
	w, levels := h.w, len(h.slots)-j
	if probe != nil {
		below := h.vals[(j-1)*w : j*w]
		if h.slots[j-1]&1 != 0 {
			convolve(below, x, probe)
		} else {
			convolve(x, below, probe)
		}
	}
	for j0 := j; j < len(h.slots); j++ {
		c := int(h.slots[j-1])
		below, cur := h.vals[(j-1)*w:j*w], h.vals[j*w:(j+1)*w]
		if c&1 != 0 { // a left child; its sibling follows it
			sib := t.node(c + 1)
			if probe != nil && j > j0 {
				convolve(probe, sib, probe)
			}
			convolve(below, sib, cur)
		} else {
			sib := t.node(c - 1)
			if probe != nil && j > j0 {
				convolve(sib, probe, probe)
			}
			convolve(sib, below, cur)
		}
	}
	if probe != nil {
		levels *= 2
	}
	countConvs(levels)
}

// rejoin3 is climb for K = 3 with a probe chain, Rejoin's recomputation:
// h's running value and the chain in registers, the LCA's level unrolled.
func (t *Tree) rejoin3(h *Path, j int, x, probe []float64) {
	v := h.vals
	b := 4 * (j - 1)
	c0, c1, c2, c3 := v[b], v[b+1], v[b+2], v[b+3]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	countConvs(2 * (len(h.slots) - j))
	// At the LCA the probe chain meets h's value below it, and the node
	// the tree's s-side child, its sibling slot.
	if c := int(h.slots[j-1]); c&1 != 0 {
		sib := t.nodes[4*c+4 : 4*c+8 : 4*c+8]
		x0, x1, x2, x3 = convolve3(c0, c1, c2, c3, x0, x1, x2, x3)
		c0, c1, c2, c3 = convolve3(c0, c1, c2, c3, sib[0], sib[1], sib[2], sib[3])
	} else {
		sib := t.nodes[4*c-4 : 4*c : 4*c]
		x0, x1, x2, x3 = convolve3(x0, x1, x2, x3, c0, c1, c2, c3)
		c0, c1, c2, c3 = convolve3(sib[0], sib[1], sib[2], sib[3], c0, c1, c2, c3)
	}
	dst := v[4*j : 4*j+4 : 4*j+4]
	dst[0], dst[1], dst[2], dst[3] = c0, c1, c2, c3
	for j++; j < len(h.slots); j++ {
		c := int(h.slots[j-1])
		if c&1 != 0 {
			sib := t.nodes[4*c+4 : 4*c+8 : 4*c+8]
			s0, s1, s2, s3 := sib[0], sib[1], sib[2], sib[3]
			x0, x1, x2, x3 = convolve3(x0, x1, x2, x3, s0, s1, s2, s3)
			c0, c1, c2, c3 = convolve3(c0, c1, c2, c3, s0, s1, s2, s3)
		} else {
			sib := t.nodes[4*c-4 : 4*c : 4*c]
			s0, s1, s2, s3 := sib[0], sib[1], sib[2], sib[3]
			x0, x1, x2, x3 = convolve3(s0, s1, s2, s3, x0, x1, x2, x3)
			c0, c1, c2, c3 = convolve3(s0, s1, s2, s3, c0, c1, c2, c3)
		}
		dst := v[4*j : 4*j+4 : 4*j+4]
		dst[0], dst[1], dst[2], dst[3] = c0, c1, c2, c3
	}
	probe = probe[:4:4]
	probe[0], probe[1], probe[2], probe[3] = x0, x1, x2, x3
}

// recomputeGeneric sets pair q's parent to the truncated convolution of the
// pair, for any K; see convolve.
func (t *Tree) recomputeGeneric(q int) {
	convolve(t.node(2*q+1), t.node(2*q+2), t.node(int(t.up[q])))
}

// convolve sets dst to the truncated convolution of l and r, for any K, and
// is the reference the K = 3 kernel is tested against: dst[c] = Σ_a
// l[a]·r[c−a], summed left to right over a, skipping terms whose l[a] is
// zero. Coefficients are computed from the highest down, and dst[c] reads
// only l[0..c] and r[0..c], so dst may alias l or r: SetLeafProbe
// convolves its chain in place. Every product is rounded before it is
// added (float64(...)), so the compiler never fuses the two into one FMA
// and every architecture computes the same bits.
//
// Precondition for the K = 3 kernel: every coefficient in the tree is
// finite and ≥ +0 — the leaf domain α/M, 1−α/M, 1/M, 0 and 1, closed under
// the products and sums below. On that domain the zero-skip drops only +0
// terms, which leave a sum ≥ +0 unchanged, so the two paths agree bit for
// bit.
func convolve(l, r, dst []float64) {
	for c := len(dst) - 1; c >= 0; c-- {
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

// recompute3 is recomputeGeneric for K = 3 with the eight child
// coefficients held in registers. Pair q's two slots are adjacent in nodes.
func (t *Tree) recompute3(q int) {
	ch := t.nodes[8*q+4 : 8*q+12 : 8*q+12]
	p := 4 * int(t.up[q])
	dst := t.nodes[p : p+4 : p+4]
	dst[0], dst[1], dst[2], dst[3] = convolve3(ch[0], ch[1], ch[2], ch[3], ch[4], ch[5], ch[6], ch[7])
}

// convolve3 is convolve for K = 3 on coefficients held in registers: the
// same products, added in the same left-to-right order, without the
// zero-skip (see convolve for why that changes no bit).
func convolve3(l0, l1, l2, l3, r0, r1, r2, r3 float64) (d0, d1, d2, d3 float64) {
	d0 = float64(l0 * r0)
	d1 = float64(l0*r1) + float64(l1*r0)
	d2 = float64(l0*r2) + float64(l1*r1) + float64(l2*r0)
	d3 = float64(l0*r3) + float64(l1*r2) + float64(l2*r1) + float64(l3*r0)
	return
}

// Root returns the root polynomial: Root()[c] is the total weight of
// configurations placing exactly c rows in the top-K. The returned slice
// aliases internal storage: it follows SetLeafProbe updates and stays
// valid until the next Reset.
func (t *Tree) Root() []float64 {
	return t.node(0)
}
