package core

import (
	"math/rand"
	"testing"
)

// nearZeroInstance builds an instance whose similarities include exact
// duplicates and near-zero / tiny-gap values, so the retained-tree replay is
// exercised against degenerate leaf weights and tie-broken scan orders.
func nearZeroInstance(rng *rand.Rand, n, maxM, numLabels int) *Instance {
	vals := []float64{0, 1e-300, -1e-300, 5e-17, -5e-17, 1e-9, 0.5, 0.5 + 1e-16, 1}
	sims := make([][]float64, n)
	labels := make([]int, n)
	for i := range sims {
		m := 1 + rng.Intn(maxM)
		row := make([]float64, m)
		for j := range row {
			row[j] = vals[rng.Intn(len(vals))]
		}
		sims[i] = row
		labels[i] = rng.Intn(numLabels)
	}
	for l := 0; l < numLabels && l < n; l++ {
		labels[l] = l
	}
	return MustNewInstance(sims, labels, numLabels)
}

// applyRandomPinOp mutates the engine's pins one step: mostly fresh pins
// (the cleaning steady state), sometimes an unpin, repin, or full reset, so
// every reuse tier — memo, irrelevant-pin skip, windowed delta, forced full
// rescan — gets hit.
func applyRandomPinOp(rng *rand.Rand, e *Engine) {
	switch op := rng.Intn(10); {
	case op == 0: // unpin a pinned row, if any
		var pinned []int
		for i := 0; i < e.N(); i++ {
			if e.Pin(i) >= 0 {
				pinned = append(pinned, i)
			}
		}
		if len(pinned) > 0 {
			e.SetPin(pinned[rng.Intn(len(pinned))], -1)
			return
		}
		fallthrough
	case op == 1: // repin or pin an arbitrary row
		row := rng.Intn(e.N())
		e.SetPin(row, rng.Intn(e.inst.M(row)))
	case op == 2 && rng.Intn(4) == 0: // occasional full reset
		e.ResetPins()
	default: // fresh pin of an unpinned row
		var free []int
		for i := 0; i < e.N(); i++ {
			if e.Pin(i) < 0 {
				free = append(free, i)
			}
		}
		if len(free) == 0 {
			e.ResetPins()
			return
		}
		row := free[rng.Intn(len(free))]
		e.SetPin(row, rng.Intn(e.inst.M(row)))
	}
}

// TestRetainedMatchesFreshSSDC is the exactness contract of the retained-tree
// mode and the lockstep test of the scan kernel's two sinks: across random
// pin/unpin/reset sequences — over generic, tied, and near-zero-weight
// instances, with multi-pin batches between queries — Retained.Counts and
// Retained.Entropy (record sink: windowed replays spliced into retained
// streams, then re-summed) must equal a fresh Engine.Counts / CountsMC
// (accumulate sink) bit for bit, for both the tally-enumeration and
// multi-class accumulators. Well over 100 distinct pin sequences run here
// (every trial is one sequence of 12 mutation steps).
func TestRetainedMatchesFreshSSDC(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	gens := []func(*rand.Rand, int, int, int) *Instance{randomInstance, tiedInstance, nearZeroInstance}
	sequences := 0
	for trial := 0; trial < 120; trial++ {
		numLabels := 2 + rng.Intn(2)
		inst := gens[trial%len(gens)](rng, 5+rng.Intn(10), 4, numLabels)
		k := 1 + rng.Intn(3)
		useMC := trial%2 == 1
		e := NewEngineFromInstance(inst)
		rt, err := NewRetained(e, k, useMC, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc := e.MustScratch(k)
		sequences++
		for step := 0; step < 12; step++ {
			if step > 0 {
				// Sometimes land several pins between queries, so delta
				// windows cover multi-pin batches too.
				for n := 1 + rng.Intn(2); n > 0; n-- {
					applyRandomPinOp(rng, e)
				}
			}
			got := rt.Counts()
			var want []float64
			if useMC {
				want = e.CountsMC(sc, -1, -1)
			} else {
				want = e.Counts(sc, -1, -1)
			}
			for y := range want {
				if got[y] != want[y] {
					t.Fatalf("trial %d step %d (mc=%v k=%d): retained[%d]=%v fresh=%v (gen %d, stats %+v)",
						trial, step, useMC, k, y, got[y], want[y], e.PinGeneration(), rt.Stats())
				}
			}
			if gotH, wantH := rt.Entropy(), Entropy(want); gotH != wantH {
				t.Fatalf("trial %d step %d: retained entropy %v fresh %v", trial, step, gotH, wantH)
			}
			wantRel := e.RelevantRows(k)
			for i, rel := range rt.Relevant() {
				if rel != wantRel[i] {
					t.Fatalf("trial %d step %d: retained relevance[%d]=%v fresh=%v", trial, step, i, rel, wantRel[i])
				}
			}
		}
	}
	if sequences < 100 {
		t.Fatalf("only %d pin sequences exercised; the contract demands ≥ 100", sequences)
	}
}

// TestRetainedReusesWork checks the tiers actually fire: repeated queries at
// one generation are memo hits, a fresh pin triggers at most a windowed
// delta, and the scanned-candidate counter stays well under the full-sweep
// cost for a cleaning-style pin sequence.
func TestRetainedReusesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	inst := randomInstance(rng, 60, 4, 2)
	e := NewEngineFromInstance(inst)
	rt, err := NewRetained(e, 3, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Counts()
	if s := rt.Stats(); s.FullScans != 1 {
		t.Fatalf("first query: %+v", s)
	}
	rt.Counts()
	rt.Counts()
	if s := rt.Stats(); s.MemoHits != 2 {
		t.Fatalf("repeat queries were not memo hits: %+v", s)
	}
	total := int64(0)
	for i := 0; i < inst.N(); i++ {
		total += int64(inst.M(i))
	}
	// Pin rows one at a time, querying after each pin, as a cleaning session
	// interleaved with batch queries would.
	perm := rng.Perm(inst.N())
	pins := 0
	for _, row := range perm[:30] {
		e.SetPin(row, rng.Intn(inst.M(row)))
		rt.Counts()
		pins++
	}
	s := rt.Stats()
	if s.FullScans != 1 {
		t.Fatalf("pins forced full rescans: %+v", s)
	}
	fullCost := int64(pins) * total
	if s.CandidatesScanned >= fullCost {
		t.Fatalf("delta replay scanned %d candidates, full sweeps would be %d: %+v",
			s.CandidatesScanned, fullCost, s)
	}
}

// TestRetainedPinLogOverflow forces the engine's bounded pin log to slide
// past the memo's generation and checks the fallback full rescan still
// answers exactly.
func TestRetainedPinLogOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(rng, 8, 3, 2)
	e := NewEngineFromInstance(inst)
	rt, err := NewRetained(e, 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := e.MustScratch(2)
	rt.Counts()
	// Far more mutations than maxPinLog, ending at a random pin state.
	for i := 0; i < maxPinLog+50; i++ {
		row := rng.Intn(inst.N())
		if rng.Intn(3) == 0 {
			e.SetPin(row, -1)
		} else {
			e.SetPin(row, rng.Intn(inst.M(row)))
		}
	}
	if _, ok := e.PinsSince(1); ok {
		t.Fatal("pin log should have slid past generation 1")
	}
	got := rt.Counts()
	want := e.Counts(sc, -1, -1)
	for y := range want {
		if got[y] != want[y] {
			t.Fatalf("after log overflow: retained %v fresh %v", got, want)
		}
	}
	if s := rt.Stats(); s.FullScans != 2 {
		t.Fatalf("overflow should force exactly one extra full rescan: %+v", s)
	}
}

// TestRetainedWithScratchPool runs the mode against a shared scratch pool
// (the serving configuration) and cross-checks a pooled and a private-scratch
// instance stay bitwise in lockstep.
func TestRetainedWithScratchPool(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	inst := randomInstance(rng, 12, 3, 3)
	e := NewEngineFromInstance(inst)
	pool, err := NewScratchPool(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := NewRetained(e, 2, false, pool)
	if err != nil {
		t.Fatal(err)
	}
	private, err := NewRetained(e, 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		if step > 0 {
			applyRandomPinOp(rng, e)
		}
		a := pooled.Counts()
		b := private.Counts()
		for y := range a {
			if a[y] != b[y] {
				t.Fatalf("step %d: pooled %v private %v", step, a, b)
			}
		}
	}
	if _, err := NewRetained(e, 3, false, pool); err == nil {
		t.Fatal("mismatched pool K must be rejected")
	}
}
