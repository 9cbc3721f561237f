package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// walkHypothesisCounts is the reference HypothesisCounts replays a tape
// against: the hypothesis scan that walks every label's tree itself. It
// runs the plain scan's loop with the row's leaf held at [1,0] (α = M) and
// the row left out of zeroRows, tallies the pre/post prefix sums at every
// position with tree work, and at each of the row's own candidates j
// snapshots both sums and adds its own boundary term. It uses sc's trees
// and buffers, not its tape.
func walkHypothesisCounts(e *Engine, sc *Scratch, row int) [][]float64 {
	inst := e.inst
	m := inst.M(row)
	sc.ensureHyp(m, e.numLabels)
	clear(sc.cumPre)
	clear(sc.cumPost)
	for j := 0; j < m; j++ {
		clear(sc.snapPre[j])
		clear(sc.snapPost[j])
		clear(sc.own[j])
	}
	pins := e.pinsFor(-1, -1)
	alpha, k := sc.alpha, sc.k
	zeroRows := e.seedAlpha(alpha, pins)
	lHyp := inst.Label(row)
	hypEv := e.liveIndex(row)
	if hypEv >= 0 {
		if alpha[hypEv] == 0 {
			zeroRows--
		}
		alpha[hypEv] = int32(m)
	}
	built := false
	for _, ref := range e.order {
		ev := int(ref.row)
		if ev == hypEv {
			j := ref.cand
			copy(sc.snapPre[j], sc.cumPre)
			copy(sc.snapPost[j], sc.cumPost)
			if zeroRows <= k-1 {
				if !built {
					e.buildLeaves(sc, pins)
					built = true
				}
				sc.tallyPre(lHyp, sc.own[j])
			}
			continue
		}
		i := inst.rows[ev]
		ch := pins.at(i)
		if ch >= 0 && ref.cand != ch {
			continue
		}
		alpha[ev]++
		if alpha[ev] == 1 {
			zeroRows--
		}
		if zeroRows > k-1 {
			continue
		}
		if !built {
			e.buildLeaves(sc, pins)
			built = true
		}
		f := inst.facts[i]
		mEff := f.M
		if ch >= 0 {
			mEff = 1
		}
		a := float64(alpha[ev]) / float64(mEff)
		sc.trees[f.Label].SetLeafProbe(int(e.slot[ev]), 0, 1/float64(mEff), a, 1-a, sc.probe)
		root := sc.roots[f.Label]
		sc.roots[f.Label] = sc.probe
		tallyHypothesis(sc, lHyp)
		sc.roots[f.Label] = root
	}
	for j := 0; j < m; j++ {
		for y := 0; y < e.numLabels; y++ {
			sc.hyp[j][y] = sc.snapPre[j][y] + (sc.cumPost[y] - sc.snapPost[j][y]) + sc.own[j][y]
		}
	}
	return sc.hyp[:m]
}

// sameHypBits reports the first pin and label where got and want differ
// by bits, or "" when they agree.
func sameHypBits(got, want [][]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d pins, want %d", len(got), len(want))
	}
	for j := range want {
		for y := range want[j] {
			if math.Float64bits(got[j][y]) != math.Float64bits(want[j][y]) {
				return fmt.Sprintf("pin %d label %d: %v, walk %v", j, y, got[j], want[j])
			}
		}
	}
	return ""
}

// tapeCase draws a feature-level case for the tape oracle: decodeBoundCase's
// grid ties and special features under any of the seven kernels, K = 1..7,
// N from K up, relabeled over 2–4 labels.
func tapeCase(t testing.TB, rng *rand.Rand) boundCase {
	t.Helper()
	c, err := decodeBoundCase(func() int { return rng.Intn(256) })
	if err != nil {
		t.Fatal(err)
	}
	numLabels := 2 + rng.Intn(3)
	examples := slices.Clone(c.d.Examples)
	for i := range examples {
		examples[i].Label = rng.Intn(numLabels)
	}
	if c.d, err = dataset.New(examples, numLabels); err != nil {
		t.Fatal(err)
	}
	return c
}

// tapeCoverage counts the hypothesis rows and tapes TestHypothesisReplayMatchesWalk
// compared, by the case each exercises.
type tapeCoverage struct {
	zeroAtStart, liveAtTransition, evaluatedNotLive, absent int
	transAtStart, nLeK                                      int
}

// checkReplay compares HypothesisCounts (sc replaying its tape) with the
// walk reference (ref) for every unpinned row of e, and counts coverage.
func checkReplay(t *testing.T, e *Engine, sc, ref *Scratch, cov *tapeCoverage, what string) {
	t.Helper()
	if e.N() <= sc.k {
		cov.nLeK++
	}
	for row := 0; row < e.N(); row++ {
		if e.Pin(row) >= 0 {
			continue
		}
		got := e.HypothesisCounts(sc, row)
		tp := &sc.tape
		if tp.transAt < 0 || tp.transAt >= len(tp.pos) {
			t.Fatalf("%s: tape of %d positions has transition %d", what, len(tp.pos), tp.transAt)
		}
		ev, evaluated := e.inst.evalIndex(row)
		switch hypEv := e.liveIndex(row); {
		case !evaluated:
			cov.absent++
		case hypEv < 0:
			cov.evaluatedNotLive++
		case slices.Contains(tp.startZero, int32(ev)):
			cov.zeroAtStart++
		default:
			cov.liveAtTransition++
		}
		if row == 0 && tp.transAt == 0 {
			cov.transAtStart++
		}
		if diff := sameHypBits(got, walkHypothesisCounts(e, ref, row)); diff != "" {
			t.Fatalf("%s: row %d (N=%d K=%d labels=%d, tape %d positions, transition %d): %s",
				what, row, e.N(), sc.k, e.numLabels, len(tp.pos), tp.transAt, diff)
		}
	}
}

// TestHypothesisReplayMatchesWalk is the oracle of the hypothesis tape:
// over random feature-level cases (all seven kernels, K = 1..7, 2–4
// labels, grid ties and special features, N down to K) and random pin
// sequences, every HypothesisCounts bit of an untruncated, a truncated and
// a bound-first engine — replayed off one Scratch's tape per engine state —
// equals the walk reference's. Every unpinned row is checked, so the rows
// with α = 0 at the tape's start, the live rows replayed from the
// transition, the evaluated rows that are not live and the absent rows are
// all covered, as are tapes whose transition is their first position; the
// test fails if any case goes unexercised.
func TestHypothesisReplayMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	var cov tapeCoverage
	for trial := 0; trial < 120; trial++ {
		c := tapeCase(t, rng)
		inst := InstanceFor(c.d, c.kernel, c.point)
		engines := []*Engine{
			NewEngineFromInstance(inst),
			NewTruncatedEngineFromInstance(inst, c.k),
			NewTruncatedEngine(c.d, c.kernel, c.point, c.k),
		}
		scs := make([]*Scratch, len(engines))
		for i, e := range engines {
			scs[i] = e.MustScratch(c.k)
		}
		ref := engines[0].MustScratch(c.k)
		for step := 0; step < 5; step++ {
			for i, e := range engines {
				what := fmt.Sprintf("trial %d step %d engine %d (%s)", trial, step, i, c.kernel.Name())
				checkReplay(t, e, scs[i], ref, &cov, what)
			}
			applyRandomPinOp(rng, engines[0], engines[1:]...)
		}
	}
	t.Logf("coverage %+v", cov)
	if cov.zeroAtStart == 0 || cov.liveAtTransition == 0 || cov.evaluatedNotLive == 0 ||
		cov.absent == 0 || cov.transAtStart == 0 || cov.nLeK == 0 {
		t.Fatalf("a case went unexercised: %+v", cov)
	}
}

// TestScratchTapeFollowsEngineState runs one Scratch through every change
// of the engine state its tape is keyed on — SetPin, a pin cleared,
// ResetPins, a Fork at the same pin generation and then pinned apart,
// another dataset's engine of the same shape, and an engine over the same
// data truncated for another K — and checks every HypothesisCounts equals a
// fresh Scratch's with ==. It also checks that ScratchPool.Put drops the
// tape's engine and that Scratch.ApproxBytes counts the tape.
func TestScratchTapeFollowsEngineState(t *testing.T) {
	const k = 3
	d, p := supremeShaped(2411)
	other, _ := supremeShaped(2412)
	e := NewTruncatedEngine(d, knn.NegEuclidean{}, p, k)
	pool, err := NewScratchPool(e, k)
	if err != nil {
		t.Fatal(err)
	}
	sc := pool.Get()
	before := sc.ApproxBytes()
	check := func(what string, e *Engine) {
		t.Helper()
		if e.N() != d.N() || e.numLabels != d.NumLabels {
			t.Fatalf("%s: engine shape %d×%d, want %d×%d", what, e.N(), e.numLabels, d.N(), d.NumLabels)
		}
		// A few live rows of each label, and rows that need not be live.
		rows := []int{0, 1, e.N() - 1}
		for _, lr := range e.liveRows {
			for _, ev := range lr[:min(len(lr), 4)] {
				rows = append(rows, int(e.inst.rows[ev]))
			}
		}
		for _, row := range rows {
			if e.Pin(row) >= 0 {
				continue
			}
			got := e.HypothesisCounts(sc, row)
			want := e.HypothesisCounts(e.MustScratch(k), row)
			for j := range want {
				for y := range want[j] {
					if got[j][y] != want[j][y] {
						t.Fatalf("%s: row %d pin %d: reused Scratch %v, fresh %v", what, row, j, got[j], want[j])
					}
				}
			}
		}
	}
	pinned := int(e.inst.rows[e.live[len(e.live)-1]])
	check("unpinned", e)
	if sc.ApproxBytes() <= before {
		t.Fatalf("Scratch.ApproxBytes %d after a tape was recorded, %d before", sc.ApproxBytes(), before)
	}
	e.SetPin(pinned, 0)
	check("pinned", e)
	e.SetPin(pinned, -1)
	check("pin cleared", e)
	e.SetPin(pinned, e.inst.M(pinned)-1)
	check("repinned", e)
	f := e.Fork()
	check("fork at the same generation", f)
	check("origin after the fork", e)
	f.SetPin(int(e.inst.rows[e.live[0]]), 0)
	check("fork pinned apart", f)
	check("origin", e)
	e.ResetPins()
	check("reset", e)
	o := NewTruncatedEngine(other, knn.NegEuclidean{}, p, k)
	check("another dataset", o)
	check("back", e)
	k4 := NewTruncatedEngine(d, knn.NegEuclidean{}, p, k+1)
	check("engine truncated for K+1", k4)
	untr := NewEngine(d, knn.NegEuclidean{}, p)
	check("untruncated engine", untr)
	check("back again", e)
	pool.Put(sc)
	if sc.tape.e != nil {
		t.Fatal("ScratchPool.Put kept the tape's engine")
	}
}
