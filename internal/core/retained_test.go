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
// both Retained tiers — memo hit and full sweep — get hit. The operation is
// drawn from e's pin state and applied to e and every mirror alike.
func applyRandomPinOp(rng *rand.Rand, e *Engine, mirrors ...*Engine) {
	es := append([]*Engine{e}, mirrors...)
	pin := func(row, cand int) { pinAll(row, cand, es...) }
	switch op := rng.Intn(10); {
	case op == 0: // unpin a pinned row, if any
		var pinned []int
		for i := 0; i < e.N(); i++ {
			if e.Pin(i) >= 0 {
				pinned = append(pinned, i)
			}
		}
		if len(pinned) > 0 {
			pin(pinned[rng.Intn(len(pinned))], -1)
			return
		}
		fallthrough
	case op == 1: // repin or pin an arbitrary row
		row := rng.Intn(e.N())
		pin(row, rng.Intn(e.inst.M(row)))
	case op == 2 && rng.Intn(4) == 0: // occasional full reset
		pin(-1, -1)
	default: // fresh pin of an unpinned row
		var free []int
		for i := 0; i < e.N(); i++ {
			if e.Pin(i) < 0 {
				free = append(free, i)
			}
		}
		if len(free) == 0 {
			pin(-1, -1)
			return
		}
		row := free[rng.Intn(len(free))]
		pin(row, rng.Intn(e.inst.M(row)))
	}
}

// pinAll applies one pin operation to every engine: SetPin(row, cand), or
// ResetPins when row < 0.
func pinAll(row, cand int, es ...*Engine) {
	for _, e := range es {
		if row < 0 {
			e.ResetPins()
		} else {
			e.SetPin(row, cand)
		}
	}
}

// TestRetainedMatchesFreshSSDC is the exactness contract of the Retained
// memo: across random pin/unpin/reset sequences — over generic, tied, and
// near-zero-weight instances, with multi-pin batches between queries —
// Retained.Counts and Retained.Relevant (memo hits kept
// across irrelevant pins, full sweeps otherwise) must equal a fresh
// Engine.Counts / CountsMC and RelevantRows bit for bit, for both the
// tally-enumeration and multi-class accumulators. Well over 100 distinct pin
// sequences run here (every trial is one sequence of 12 mutation steps).
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
		rt := mustRetained(t, e, k, useMC)
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

// TestRetainedReusesWork checks each memo tier fires where it should, for
// both accumulators, with every answer == a fresh sweep: repeats and fresh
// pins of irrelevant rows are memo hits, a pin followed by an unpin of the
// same row is a memo hit, and a relevant pin and a ResetPins are one full
// sweep each.
func TestRetainedReusesWork(t *testing.T) {
	for _, useMC := range []bool{false, true} {
		rng := rand.New(rand.NewSource(99))
		inst := randomInstance(rng, 60, 4, 2)
		e := NewEngineFromInstance(inst)
		rt := mustRetained(t, e, 3, useMC)
		sc := e.MustScratch(3)
		var want RetainedStats
		query := func(what string, tier *int64) {
			t.Helper()
			got := rt.Counts()
			fresh := e.Counts(sc, -1, -1)
			if useMC {
				fresh = e.CountsMC(sc, -1, -1)
			}
			for y := range fresh {
				if got[y] != fresh[y] {
					t.Fatalf("mc=%v %s: retained %v, fresh sweep %v", useMC, what, got, fresh)
				}
			}
			*tier++
			if s := rt.Stats(); s.FullScans != want.FullScans || s.MemoHits != want.MemoHits || s.DeltaScans != 0 {
				t.Fatalf("mc=%v %s: stats %+v, want %d full sweeps and %d memo hits",
					useMC, what, s, want.FullScans, want.MemoHits)
			}
		}
		query("first query", &want.FullScans)
		query("repeat", &want.MemoHits)
		query("second repeat", &want.MemoHits)

		var irrelevant, relevant []int
		for i, rel := range rt.Relevant() {
			if rel {
				relevant = append(relevant, i)
			} else {
				irrelevant = append(irrelevant, i)
			}
		}
		if len(irrelevant) < 2 || len(relevant) == 0 {
			t.Fatalf("instance has %d irrelevant and %d relevant rows; the tiers need both", len(irrelevant), len(relevant))
		}
		e.SetPin(irrelevant[0], 0)
		query("fresh pin of an irrelevant row", &want.MemoHits)
		e.SetPin(irrelevant[1], inst.M(irrelevant[1])-1)
		query("second irrelevant pin", &want.MemoHits)

		r := relevant[0]
		e.SetPin(r, 0)
		e.SetPin(r, -1)
		query("pin then unpin of a relevant row", &want.MemoHits)

		e.SetPin(r, inst.M(r)-1)
		scanned := rt.Stats().CandidatesScanned
		query("relevant pin", &want.FullScans)
		if rt.Stats().CandidatesScanned <= scanned {
			t.Fatalf("mc=%v: relevant pin swept no candidates: %+v", useMC, rt.Stats())
		}

		e.ResetPins()
		query("ResetPins", &want.FullScans)
		query("repeat after ResetPins", &want.MemoHits)
	}
}

// TestRetainedRefresh checks Refresh sweeps exactly when Counts would —
// before the first query and after a relevant pin, not after an irrelevant
// one or a second time — counts only the sweep, and leaves a memo the next
// Counts answers as a hit, equal to a fresh sweep bit for bit.
func TestRetainedRefresh(t *testing.T) {
	inst := randomInstance(rand.New(rand.NewSource(97)), 60, 4, 2)
	e := NewEngineFromInstance(inst)
	rt := mustRetained(t, e, 3, false)
	sc := e.MustScratch(3)
	var want RetainedStats
	refresh := func(what string, sweeps int64) {
		t.Helper()
		rt.Refresh()
		rt.Refresh()
		want.FullScans += sweeps
		if s := rt.Stats(); s.FullScans != want.FullScans || s.MemoHits != want.MemoHits {
			t.Fatalf("%s: stats %+v after two Refresh calls, want %d full sweeps and %d memo hits",
				what, s, want.FullScans, want.MemoHits)
		}
		got := rt.Counts()
		want.MemoHits++
		if s := rt.Stats(); s.FullScans != want.FullScans || s.MemoHits != want.MemoHits {
			t.Fatalf("%s: Counts after Refresh was not a memo hit: %+v", what, s)
		}
		fresh := e.Counts(sc, -1, -1)
		for y := range fresh {
			if got[y] != fresh[y] {
				t.Fatalf("%s: retained %v, fresh sweep %v", what, got, fresh)
			}
		}
	}
	refresh("first refresh", 1)
	relevant, irrelevant := -1, -1
	for i, rel := range rt.Relevant() {
		switch {
		case rel && relevant < 0:
			relevant = i
		case !rel && irrelevant < 0:
			irrelevant = i
		}
	}
	if relevant < 0 || irrelevant < 0 {
		t.Fatalf("need a relevant and an irrelevant row, got %d and %d", relevant, irrelevant)
	}
	e.SetPin(irrelevant, inst.M(irrelevant)-1)
	refresh("irrelevant pin", 0)
	e.SetPin(relevant, inst.M(relevant)-1)
	refresh("relevant pin", 1)
}

// TestRetainedUnchangedSince checks the predicate a CPClean run's
// certainty refresh trusts: false before any query and for a generation
// older than the memo, true across fresh pins of irrelevant rows, false
// once a relevant row is pinned.
func TestRetainedUnchangedSince(t *testing.T) {
	inst := randomInstance(rand.New(rand.NewSource(98)), 60, 4, 2)
	e := NewEngineFromInstance(inst)
	rt := mustRetained(t, e, 3, false)
	if rt.UnchangedSince(e.PinGeneration()) {
		t.Fatal("a memo never computed reports its pins unchanged")
	}
	e.SetPin(0, 0)
	rt.Counts()
	g := e.PinGeneration()
	if !rt.UnchangedSince(g) || rt.UnchangedSince(g-1) {
		t.Fatalf("memo at generation %d: UnchangedSince(%d)=%v, UnchangedSince(%d)=%v",
			g, g, rt.UnchangedSince(g), g-1, rt.UnchangedSince(g-1))
	}
	relevant, irrelevant := -1, -1
	for i, rel := range rt.Relevant() {
		switch {
		case i == 0:
		case rel && relevant < 0:
			relevant = i
		case !rel && irrelevant < 0:
			irrelevant = i
		}
	}
	if relevant < 0 || irrelevant < 0 {
		t.Fatalf("need a relevant and an irrelevant row, got %d and %d", relevant, irrelevant)
	}
	e.SetPin(irrelevant, inst.M(irrelevant)-1)
	if !rt.UnchangedSince(g) {
		t.Fatal("a fresh pin of an irrelevant row made the memo stale")
	}
	e.SetPin(relevant, inst.M(relevant)-1)
	if rt.UnchangedSince(g) || rt.UnchangedSince(e.PinGeneration()) {
		t.Fatal("a pin of a relevant row left the memo unchanged")
	}
}

// TestRetainedWithScratchPool runs two memos of one engine against one
// shared scratch pool (the serving configuration), checks both stay bitwise
// equal to a fresh sweep, and that a nil pool or a pool of another K is
// rejected.
func TestRetainedWithScratchPool(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	inst := randomInstance(rng, 12, 3, 3)
	e := NewEngineFromInstance(inst)
	pool, err := NewScratchPool(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	var memos [2]*Retained
	for i, useMC := range []bool{false, true} {
		if memos[i], err = NewRetained(e, 2, useMC, pool); err != nil {
			t.Fatal(err)
		}
	}
	sc := e.MustScratch(2)
	for step := 0; step < 8; step++ {
		if step > 0 {
			applyRandomPinOp(rng, e)
		}
		for i, rt := range memos {
			got := rt.Counts()
			want := e.Counts(sc, -1, -1)
			if rt.UseMC() {
				want = e.CountsMC(sc, -1, -1)
			}
			for y := range want {
				if got[y] != want[y] {
					t.Fatalf("step %d memo %d: pooled %v fresh %v", step, i, got, want)
				}
			}
		}
	}
	if _, err := NewRetained(e, 2, false, nil); err == nil {
		t.Fatal("a nil scratch pool must be rejected")
	}
	if _, err := NewRetained(e, 3, false, pool); err == nil {
		t.Fatal("mismatched pool K must be rejected")
	}
}

// mustRetained builds a Retained over e whose sweeps borrow Scratches from
// a fresh pool of e's shape.
func mustRetained(t testing.TB, e *Engine, k int, useMC bool) *Retained {
	t.Helper()
	pool, err := NewScratchPool(e, k)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRetained(e, k, useMC, pool)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}
