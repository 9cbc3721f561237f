package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

func TestEngineWorldCountUnderPins(t *testing.T) {
	d := dataset.MustNew([]dataset.Example{
		{Candidates: [][]float64{{0}, {1}}, Label: 0},
		{Candidates: [][]float64{{2}, {3}, {4}}, Label: 1},
		{Candidates: [][]float64{{5}}, Label: 0},
	}, 2)
	e := NewEngine(d, knn.NegEuclidean{}, []float64{0})
	if e.WorldCount().Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("world count %s", e.WorldCount())
	}
	e.SetPin(1, 2)
	if e.WorldCount().Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("pinned world count %s", e.WorldCount())
	}
	if e.PinnedCount() != 1 || e.Pin(1) != 2 || e.Pin(0) != -1 {
		t.Fatalf("pin state: count=%d pin(1)=%d", e.PinnedCount(), e.Pin(1))
	}
	e.SetPin(1, -1)
	if e.PinnedCount() != 0 {
		t.Fatal("unpin failed")
	}
}

func TestEngineSetPinValidation(t *testing.T) {
	inst := MustNewInstance([][]float64{{1, 2}}, []int{0}, 2)
	e := NewEngineFromInstance(inst)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range pin accepted")
		}
	}()
	e.SetPin(0, 5)
}

// TestScratchReuseAcrossEngines covers the CPClean pattern: one scratch
// serving many engines built from the same dataset (identical shape).
func TestScratchReuseAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d := dataset.MustNew([]dataset.Example{
		{Candidates: [][]float64{{0.1}, {0.9}}, Label: 0},
		{Candidates: [][]float64{{0.5}}, Label: 1},
		{Candidates: [][]float64{{0.3}, {0.7}}, Label: 1},
		{Candidates: [][]float64{{0.2}}, Label: 0},
	}, 2)
	engines := make([]*Engine, 5)
	for v := range engines {
		engines[v] = NewEngine(d, knn.NegEuclidean{}, []float64{rng.Float64()})
	}
	sc := engines[0].MustScratch(3)
	for v, e := range engines {
		shared := append([]float64(nil), e.Counts(sc, -1, -1)...)
		own := e.Counts(e.MustScratch(3), -1, -1)
		if d := maxAbsDiff(shared, own); d > 1e-12 {
			t.Fatalf("engine %d: shared-scratch counts differ by %g", v, d)
		}
	}
}

func TestHypothesisCountsRejectsPinnedRow(t *testing.T) {
	inst := MustNewInstance([][]float64{{1, 2}, {3}}, []int{0, 1}, 2)
	e := NewEngineFromInstance(inst)
	e.SetPin(0, 1)
	sc := e.MustScratch(1)
	defer func() {
		if recover() == nil {
			t.Fatal("HypothesisCounts on pinned row did not panic")
		}
	}()
	e.HypothesisCounts(sc, 0)
}

func TestInstanceForComputesKernelSims(t *testing.T) {
	d := dataset.MustNew([]dataset.Example{
		{Candidates: [][]float64{{0}, {3}}, Label: 0},
	}, 2)
	inst := InstanceFor(d, knn.NegEuclidean{}, []float64{1})
	if inst.Sims[0][0] != -1 || inst.Sims[0][1] != -2 {
		t.Fatalf("sims %v", inst.Sims[0])
	}
}

func TestCheckFromExactAndNormalized(t *testing.T) {
	c := newExactCounts(2)
	c.Total.SetInt64(4)
	c.PerLabel[0].SetInt64(4)
	q1 := CheckFromExact(c)
	if !q1[0] || q1[1] {
		t.Fatalf("q1 = %v", q1)
	}
	qn := CheckFromNormalized([]float64{1, 0})
	if !qn[0] || qn[1] {
		t.Fatalf("qn = %v", qn)
	}
	if !IsCertain([]float64{1 - 1e-12, 1e-12}) {
		t.Fatal("near-one fraction not certain")
	}
	if IsCertain([]float64{0.6, 0.4}) {
		t.Fatal("0.6 reported certain")
	}
}

func TestArgmaxProb(t *testing.T) {
	if ArgmaxProb([]float64{0.2, 0.5, 0.3}) != 1 {
		t.Fatal("argmax wrong")
	}
	if ArgmaxProb([]float64{0.5, 0.5}) != 0 {
		t.Fatal("tie should go to the smaller label")
	}
}

// TestEngineForkIsolated is the contract of Engine.Fork: pinning a fork
// never shows through the parent's pin state, a fork answers every query
// exactly (==) like a freshly built engine under the same pins, and a
// Retained on a fork stays exact while other goroutines sweep the parent —
// the serving layer's shape, where session forks share a pooled engine that
// keeps answering unpinned dataset queries (run under -race).
func TestEngineForkIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(1501))
	for trial := 0; trial < 24; trial++ {
		inst := randomInstance(rng, 6+rng.Intn(8), 4, 2)
		k := 1 + rng.Intn(3)
		parent := NewEngineFromInstance(inst)
		psc := parent.MustScratch(k)
		unpinned := append([]float64(nil), parent.Counts(psc, -1, -1)...)

		fork := parent.Fork()
		rt, err := NewRetained(fork, k, trial%2 == 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		diverged := make(chan []float64, 1)
		go func() {
			defer close(done)
			for n := 0; n < 50; n++ {
				got := parent.Counts(psc, -1, -1)
				for y := range got {
					if got[y] != unpinned[y] {
						diverged <- append([]float64(nil), got...)
						return
					}
				}
			}
		}()
		fsc := fork.MustScratch(k)
		for step := 0; step < 10; step++ {
			applyRandomPinOp(rng, fork)
			want := fork.Counts(fsc, -1, -1)
			if rt.UseMC() {
				want = fork.CountsMC(fsc, -1, -1)
			}
			got := rt.Counts()
			for y := range want {
				if got[y] != want[y] {
					t.Fatalf("trial %d step %d: retained on fork [%d]=%v, fresh sweep %v", trial, step, y, got[y], want[y])
				}
			}
		}
		<-done
		select {
		case got := <-diverged:
			t.Fatalf("trial %d: parent counts %v while its fork was pinned, want %v", trial, got, unpinned)
		default:
		}

		if parent.PinGeneration() != 0 || parent.PinnedCount() != 0 {
			t.Fatalf("trial %d: parent gen %d pinned %d after pinning its fork", trial, parent.PinGeneration(), parent.PinnedCount())
		}
		if ev, ok := parent.PinsSince(0); !ok || len(ev) != 0 {
			t.Fatalf("trial %d: parent pin log %v ok=%v after pinning its fork", trial, ev, ok)
		}

		fresh := NewEngineFromInstance(inst)
		for i := 0; i < fork.N(); i++ {
			if p := fork.Pin(i); p >= 0 {
				fresh.SetPin(i, p)
			}
		}
		ssc := fresh.MustScratch(k)
		assertForkMatchesFresh(t, trial, fork, fresh, fsc, ssc, k)
	}
}

// assertForkMatchesFresh compares every query of fork against fresh (same
// instance, same pins) with ==.
func assertForkMatchesFresh(t *testing.T, trial int, fork, fresh *Engine, fsc, ssc *Scratch, k int) {
	t.Helper()
	equal := func(what string, a, b []float64) {
		for y := range b {
			if a[y] != b[y] {
				t.Fatalf("trial %d: fork %s %v, fresh engine %v", trial, what, a, b)
			}
		}
	}
	equal("Counts", append([]float64(nil), fork.Counts(fsc, -1, -1)...), fresh.Counts(ssc, -1, -1))
	equal("CountsMC", append([]float64(nil), fork.CountsMC(fsc, -1, -1)...), fresh.CountsMC(ssc, -1, -1))
	for row := 0; row < fork.N(); row++ {
		if fork.Pin(row) >= 0 {
			continue
		}
		got := fork.HypothesisCounts(fsc, row)
		want := fresh.HypothesisCounts(ssc, row)
		for j := range want {
			equal("HypothesisCounts", got[j], want[j])
		}
	}
	gotMM, err := fork.CheckMM(k, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	wantMM, err := fresh.CheckMM(k, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	for y := range wantMM {
		if gotMM[y] != wantMM[y] {
			t.Fatalf("trial %d: fork CheckMM %v, fresh engine %v", trial, gotMM, wantMM)
		}
	}
	if fork.WorldCount().Cmp(fresh.WorldCount()) != 0 {
		t.Fatalf("trial %d: fork world count %s, fresh engine %s", trial, fork.WorldCount(), fresh.WorldCount())
	}
}

// TestEngineForkPinLogStartsAtParent checks a fork of a pinned engine keeps
// the parent's pins and generation but none of its pin history.
func TestEngineForkPinLogStartsAtParent(t *testing.T) {
	inst := MustNewInstance([][]float64{{1, 2}, {3}, {4, 5, 6}}, []int{0, 1, 0}, 2)
	parent := NewEngineFromInstance(inst)
	parent.SetPin(0, 1)
	parent.SetPin(2, 0)
	fork := parent.Fork()
	if fork.PinGeneration() != 2 || fork.Pin(0) != 1 || fork.Pin(2) != 0 {
		t.Fatalf("fork gen %d pins %d,%d; want gen 2 pins 1,0", fork.PinGeneration(), fork.Pin(0), fork.Pin(2))
	}
	if _, ok := fork.PinsSince(1); ok {
		t.Fatal("fork reports pin history from before it was forked")
	}
	fork.SetPin(1, 0)
	if ev, ok := fork.PinsSince(2); !ok || len(ev) != 1 || ev[0] != (PinEvent{Row: 1, Old: -1, New: 0}) {
		t.Fatalf("fork PinsSince(2) = %v, %v", ev, ok)
	}
	if parent.Pin(1) != -1 || parent.PinGeneration() != 2 {
		t.Fatal("pinning the fork changed the parent")
	}
}
