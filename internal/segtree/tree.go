// Package segtree implements the divide-and-conquer dynamic-programming tree
// from appendix A.2 of the paper: a segment tree whose leaves hold degree-1
// polynomials (the per-row "in / not in the top-K" weights) and whose
// internal nodes hold K-truncated polynomial products
//
//	T(c, a, b) = Σ_k T(k, a, m) · T(c−k, m+1, b)
//
// so the root coefficient T(c, 1, N) is the total weight of choosing exactly
// c rows into the top-K. Updating one leaf costs O(K² log N); reading the
// root is O(1).
//
// # Purity invariant
//
// Every internal node is always the exact truncated convolution of its two
// children (each update fully recomputes the nodes on the changed leaf's
// path), so node values — the root above all — are a pure function of the
// current leaf values: any sequence of SetLeaf / ResetLeaves / CopyFrom
// calls that ends in the same leaf state yields bit-identical node values,
// regardless of the path taken. The retained-tree incremental Q2 mode
// (internal/core.Retained) depends on exactly this property to splice
// bulk-rebuilt tree states into the middle of a replayed scan and still
// match a fresh scan bit for bit; TestPathIndependence pins it.
//
// # Tree arithmetic
//
// SS-DC's leaves come from one domain: α/M, 1−α/M, 1/M, 0 and 1 — finite
// values ≥ +0 — and every node is built from them by products and sums,
// which keep the domain. Three facts follow, and the answer bits rest on
// them:
//
//   - A product with the identity [1, 0, ..., 0] is exact: 1·x = x and
//     x + (+0) = x for x ≥ +0. So a node over identity leaves only is the
//     identity, and ResetLeaves may skip every node with no non-identity
//     leaf below it.
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

// PolyTree is a fixed-size segment tree over n leaves, each node storing a
// polynomial of k+1 coefficients.
type PolyTree struct {
	n     int // number of real leaves
	k     int // polynomial degree bound (top-K capacity)
	size  int // number of leaves in the padded (power-of-two) tree
	nodes []float64
	work  []int // ResetLeaves' per-level ancestor list
}

// New creates a tree with n leaves and capacity k. All real leaves start as
// [1, 0, ..., 0] (the identity weight); padding leaves are identities too.
func New(n, k int) *PolyTree {
	if n < 0 || k < 0 {
		panic("segtree: negative size")
	}
	size := 1
	for size < n {
		size *= 2
	}
	if n == 0 {
		size = 1
	}
	t := &PolyTree{n: n, k: k, size: size,
		nodes: make([]float64, 2*size*(k+1)),
		work:  make([]int, 0, size),
	}
	t.ResetIdentity()
	return t
}

// Len returns the number of real leaves.
func (t *PolyTree) Len() int { return t.n }

// K returns the capacity bound.
func (t *PolyTree) K() int { return t.k }

// node returns the coefficient slice of tree node idx (1-based heap layout).
func (t *PolyTree) node(idx int) []float64 {
	w := t.k + 1
	return t.nodes[idx*w : idx*w+w]
}

// ResetIdentity sets every leaf to the identity polynomial [1, 0, ..., 0]
// and rebuilds internal nodes. O(size·K).
func (t *PolyTree) ResetIdentity() {
	w := t.k + 1
	for i := range t.nodes {
		t.nodes[i] = 0
	}
	// All nodes are [1,0,...]: identity products of identities.
	for idx := 1; idx < 2*t.size; idx++ {
		t.nodes[idx*w] = 1
	}
}

// ResetLeaves sets leaf pos[j] to [p0[j], p1[j], 0, ...] for every j, sets
// every other leaf to the identity [1, 0, ..., 0], and recomputes only the
// ancestors of the given leaves, level by level. pos must be strictly
// ascending leaf indices. A node with no given leaf below it is the product
// of identities, which is the identity exactly (see the package doc), so
// the result equals a build that sets every leaf and recomputes every
// internal node, node for node. O(size·K + |pos|·K²·log(n/|pos|)).
func (t *PolyTree) ResetLeaves(pos []int32, p0, p1 []float64) {
	if len(p0) != len(pos) || len(p1) != len(pos) {
		panic("segtree: ResetLeaves length mismatch")
	}
	t.ResetIdentity()
	cur := t.work[:0]
	last := -1
	for j, p := range pos {
		i := int(p)
		if i <= last || i >= t.n {
			panic("segtree: ResetLeaves positions not strictly ascending within range")
		}
		last = i
		leaf := t.node(t.size + i)
		leaf[0] = p0[j]
		if t.k >= 1 {
			leaf[1] = p1[j]
		}
		if idx := (t.size + i) / 2; len(cur) == 0 || cur[len(cur)-1] != idx {
			cur = append(cur, idx)
		}
	}
	// cur holds one level's distinct ancestors in ascending order; their
	// parents, deduplicated, are the next level up. next overwrites cur in
	// place: its write index never passes the read index.
	for len(cur) > 0 && cur[0] >= 1 {
		next := cur[:0]
		for _, idx := range cur {
			t.recompute(idx)
			if up := idx / 2; len(next) == 0 || next[len(next)-1] != up {
				next = append(next, up)
			}
		}
		cur = next
	}
}

// SetLeaf sets leaf i to the polynomial [p0, p1, 0, ...] and updates the
// path to the root. O(K² log n).
func (t *PolyTree) SetLeaf(i int, p0, p1 float64) {
	if i < 0 || i >= t.n {
		panic("segtree: SetLeaf out of range")
	}
	leaf := t.node(t.size + i)
	for j := range leaf {
		leaf[j] = 0
	}
	leaf[0] = p0
	if t.k >= 1 {
		leaf[1] = p1
	}
	// The kernel choice is hoisted out of the path loop, so the generic
	// path pays no per-node dispatch.
	idx := (t.size + i) / 2
	if t.k == 3 {
		for ; idx >= 1; idx /= 2 {
			t.recompute3(idx)
		}
		return
	}
	for ; idx >= 1; idx /= 2 {
		t.recomputeGeneric(idx)
	}
}

// CopyFrom makes t a bitwise copy of src, which must have identical n and k.
// O(size·K) — cheaper than replaying src's update history.
func (t *PolyTree) CopyFrom(src *PolyTree) {
	if t.n != src.n || t.k != src.k {
		panic("segtree: CopyFrom shape mismatch")
	}
	copy(t.nodes, src.nodes)
}

// recompute sets node idx to the truncated convolution of its children, by
// the K = 3 kernel when it applies and the generic loop otherwise.
//
// Precondition for the kernel: every coefficient in the tree is finite and
// ≥ +0 — the leaf domain α/M, 1−α/M, 1/M, 0 and 1, closed under the
// products and sums below. On that domain the generic loop's zero-skip
// drops only +0 terms, which leave a sum ≥ +0 unchanged, so the two paths
// agree bit for bit.
func (t *PolyTree) recompute(idx int) {
	if t.k == 3 {
		t.recompute3(idx)
		return
	}
	t.recomputeGeneric(idx)
}

// recomputeGeneric is the convolution for any K, and the reference the
// K = 3 kernel is tested against: dst[c] = Σ_a l[a]·r[c−a], summed left
// to right over a, skipping terms whose l[a] is zero. dst never aliases
// the children (idx < 2·idx), so it writes straight into dst. Every
// product is rounded before it is added (float64(...)), so the compiler
// never fuses the two into one FMA and every architecture computes the
// same bits.
func (t *PolyTree) recomputeGeneric(idx int) {
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

// recompute3 is recomputeGeneric for K = 3 with the eight child
// coefficients held in registers: the same products, added in the same
// left-to-right order, without the zero-skip (see recompute for why that
// changes no bit). The children 2·idx and 2·idx+1 are adjacent in nodes.
func (t *PolyTree) recompute3(idx int) {
	ch := t.nodes[8*idx : 8*idx+8 : 8*idx+8]
	l0, l1, l2, l3 := ch[0], ch[1], ch[2], ch[3]
	r0, r1, r2, r3 := ch[4], ch[5], ch[6], ch[7]
	dst := t.nodes[4*idx : 4*idx+4 : 4*idx+4]
	dst[0] = float64(l0 * r0)
	dst[1] = float64(l0*r1) + float64(l1*r0)
	dst[2] = float64(l0*r2) + float64(l1*r1) + float64(l2*r0)
	dst[3] = float64(l0*r3) + float64(l1*r2) + float64(l2*r1) + float64(l3*r0)
}

// Root returns the root polynomial: Root()[c] is the total weight of
// configurations placing exactly c rows in the top-K. The returned slice
// aliases internal storage; do not modify or retain across updates.
func (t *PolyTree) Root() []float64 {
	return t.node(1)
}
