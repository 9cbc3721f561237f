//go:build workcount

package segtree

import (
	"math/rand"
	"testing"
)

// TestConvolutionsCountEveryWalk checks the workcount build's counter
// against the walks' shapes: Build counts one convolution per pair,
// SetLeafProbe and SetLeafWalk two per level of the walked path, LeafPath
// one per level above the leaf, and Rejoin two per level from the LCA up.
func TestConvolutionsCountEveryWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		k := trial % 8
		live, p0, p1 := randomLive(rng, 2+rng.Intn(60), rng.Float64())
		if len(live) < 2 {
			continue
		}
		tr := NewTree(k)
		before := Convolutions()
		slots := build(tr, live, p0, p1)
		if got := Convolutions() - before; got != int64(len(live)-1) {
			t.Fatalf("trial %d: Build of %d leaves counted %d", trial, len(live), got)
		}
		ri, si := rng.Intn(len(live)), rng.Intn(len(live))
		for si == ri {
			si = rng.Intn(len(live))
		}
		var h, w Path
		before = Convolutions()
		tr.LeafPath(int(slots[ri]), 1, 0, &h)
		if got := Convolutions() - before; got != int64(len(h.slots)-1) {
			t.Fatalf("trial %d: LeafPath over %d slots counted %d", trial, len(h.slots), got)
		}
		before = Convolutions()
		tr.SetLeafProbe(int(slots[si]), 0, 1, 0.5, 0.5, make([]float64, k+1))
		tr.SetLeafWalk(int(slots[si]), 0, 1, 0.5, 0.5, &w)
		if got := Convolutions() - before; got != 4*int64(len(w.slots)-1) {
			t.Fatalf("trial %d: SetLeafProbe and SetLeafWalk over %d slots counted %d", trial, len(w.slots), got)
		}
		lca := LCALevel(live[ri], live[si])
		before = Convolutions()
		tr.Rejoin(&h, &w, lca, make([]float64, k+1))
		if got, want := Convolutions()-before, 2*int64(len(h.slots)-int(h.at[lca])); got != want {
			t.Fatalf("trial %d: Rejoin counted %d, want %d", trial, got, want)
		}
	}
}
