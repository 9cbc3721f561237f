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

// walkHypothesisCounts is the reference HypothesisCounts and
// HypothesisGroup are checked against: the hypothesis scan that walks
// every label's tree itself. It runs the plain scan's loop with the row's
// leaf held at [1,0] (α = M) and the row left out of zeroRows, tallies the
// pre/post prefix sums at every position with tree work, and at each of
// the row's own candidates j snapshots both sums and adds its own boundary
// term. It uses sc's trees, and sums of its own.
func walkHypothesisCounts(e *Engine, sc *Scratch, row int) [][]float64 {
	inst := e.inst
	m := inst.M(row)
	var r hypRow
	r.reset(m, e.numLabels)
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
			snapPre, snapPost, own := r.cand(int(ref.cand))
			copy(snapPre, r.cumPre)
			copy(snapPost, r.cumPost)
			if zeroRows <= k-1 {
				if !built {
					e.buildLeaves(sc, pins)
					built = true
				}
				sc.tallyPre(lHyp, own)
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
		tallyHypothesis(sc, lHyp, r.cumPost, r.cumPre)
		sc.roots[f.Label] = root
	}
	out := make([][]float64, m)
	for j := range out {
		snapPre, snapPost, own := r.cand(j)
		out[j] = make([]float64, e.numLabels)
		for y := range out[j] {
			out[j][y] = snapPre[y] + (r.cumPost[y] - snapPost[y]) + own[y]
		}
	}
	return out[:m]
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

// hypCase draws a feature-level case for the hypothesis oracle:
// decodeBoundCase's grid ties and special features under any of the seven
// kernels, K = 1..7, N from K up, relabeled over 2–4 labels.
func hypCase(t testing.TB, rng *rand.Rand) boundCase {
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

// groupCoverage counts the hypothesis rows and groups the group oracle
// compared, by the case each exercises.
type groupCoverage struct {
	// Rows: live and started at the pass's first position with tree work
	// (α = 0 there), live and started at the plain transition, evaluated
	// but not live, absent.
	atStart, atTransition, evaluatedNotLive, absent int
	// Engine states whose pass starts at its transition, and with N ≤ K.
	startIsTransition, nLeK int
	// Groups of more than one row, by K.
	groupsByK map[int]int
}

// passStart replays the group pass's zero-row count to its first position
// with tree work and returns the live rows with α = 0 there, and whether
// that position is also the plain transition (zeroRows ≤ K−1).
func passStart(e *Engine, k int) (zero map[int]bool, isTransition bool) {
	pins := e.pinsFor(-1, -1)
	alpha := make([]int32, e.N())
	zeroRows := e.seedAlpha(alpha, pins)
	for _, ref := range e.order {
		ev := int(ref.row)
		if ch := pins.at(e.inst.rows[ev]); ch >= 0 && ref.cand != ch {
			continue
		}
		alpha[ev]++
		if alpha[ev] == 1 {
			zeroRows--
		}
		if zeroRows <= k {
			zero = map[int]bool{}
			for _, lv := range e.live {
				if alpha[lv] == 0 {
					zero[int(lv)] = true
				}
			}
			return zero, zeroRows <= k-1
		}
	}
	return nil, false
}

// checkGroups splits e's unpinned rows, in random order, into groups at
// random boundaries, runs HypothesisGroup on sc for each, and compares
// every row's distributions with the walk reference's (on ref) by bits,
// counting coverage.
func checkGroups(t *testing.T, rng *rand.Rand, e *Engine, sc, ref *Scratch, cov *groupCoverage, what string) {
	t.Helper()
	if e.N() <= sc.k {
		cov.nLeK++
	}
	zero, isTransition := passStart(e, sc.k)
	if isTransition {
		cov.startIsTransition++
	}
	var rows []int
	for _, row := range rng.Perm(e.N()) {
		if e.Pin(row) < 0 {
			rows = append(rows, row)
		}
	}
	for len(rows) > 0 {
		n := 1 + rng.Intn(len(rows))
		group := rows[:n]
		rows = rows[n:]
		if n > 1 {
			cov.groupsByK[sc.k]++
		}
		got := groupResults(e, sc, group)
		if len(got) != n {
			t.Fatalf("%s: %d results for a group of %d", what, len(got), n)
		}
		for g, row := range group {
			ev, evaluated := e.inst.evalIndex(row)
			switch hypEv := e.liveIndex(row); {
			case !evaluated:
				cov.absent++
			case hypEv < 0:
				cov.evaluatedNotLive++
			case zero[ev]:
				cov.atStart++
			default:
				cov.atTransition++
			}
			if diff := sameHypBits(got[g], walkHypothesisCounts(e, ref, row)); diff != "" {
				t.Fatalf("%s: row %d, %d of a group of %d (N=%d K=%d labels=%d): %s",
					what, row, g, n, e.N(), sc.k, e.numLabels, diff)
			}
		}
	}
}

// groupResults runs HypothesisGroup and returns copies of each row's
// distributions, failing the test unless yield saw the rows in order.
func groupResults(e *Engine, sc *Scratch, rows []int) [][][]float64 {
	var out [][][]float64
	e.HypothesisGroup(sc, rows, func(g int, dists [][]float64) {
		if g != len(out) {
			panic(fmt.Sprintf("HypothesisGroup yielded row %d after %d rows", g, len(out)))
		}
		out = append(out, cloneHyp(dists))
	})
	return out
}

// cloneHyp copies distributions out of a Scratch.
func cloneHyp(h [][]float64) [][]float64 {
	out := make([][]float64, len(h))
	for j := range h {
		out[j] = slices.Clone(h[j])
	}
	return out
}

// TestHypothesisReplayMatchesWalk is the oracle of the hypothesis group
// pass: over random feature-level cases (all seven kernels, K = 1..7, 2–4
// labels, grid ties and special features, N down to K) and random pin
// sequences, every HypothesisGroup bit of an untruncated, a truncated and
// a bound-first engine — the unpinned rows in random order, split into
// groups at random boundaries, one Scratch per engine reused throughout —
// equals the walk reference's. Every unpinned row is checked, so the rows
// that start at the pass's first position, the live rows that start at the
// transition, the evaluated rows that are not live and the absent rows are
// all covered, as are passes that start at their transition and groups of
// several rows at K = 1, 3 and 5; the test fails if any case goes
// unexercised.
func TestHypothesisReplayMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	cov := groupCoverage{groupsByK: map[int]int{}}
	for trial := 0; trial < 120; trial++ {
		c := hypCase(t, rng)
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
				checkGroups(t, rng, e, scs[i], ref, &cov, what)
			}
			applyRandomPinOp(rng, engines[0], engines[1:]...)
		}
	}
	t.Logf("coverage %+v", cov)
	if cov.atStart == 0 || cov.atTransition == 0 || cov.evaluatedNotLive == 0 ||
		cov.absent == 0 || cov.startIsTransition == 0 || cov.nLeK == 0 ||
		cov.groupsByK[1] == 0 || cov.groupsByK[3] == 0 || cov.groupsByK[5] == 0 {
		t.Fatalf("a case went unexercised: %+v", cov)
	}
}

// TestHypothesisGroupRejectsDuplicateRow checks that a row named twice in
// one group panics rather than answer for one of the two.
func TestHypothesisGroupRejectsDuplicateRow(t *testing.T) {
	d, p := supremeShaped(2413)
	e := NewTruncatedEngine(d, knn.NegEuclidean{}, p, 3)
	row := int(e.inst.rows[e.live[0]])
	defer func() {
		if recover() == nil {
			t.Fatal("HypothesisGroup with a duplicate row did not panic")
		}
	}()
	e.HypothesisGroup(e.MustScratch(3), []int{row, row}, func(int, [][]float64) {})
}

// TestScratchReuseFollowsEngineState runs one pooled Scratch through every
// change of engine state — SetPin, a pin cleared, ResetPins, a Fork at the
// same pin generation and then pinned apart, another dataset's engine of
// the same shape, and an engine over the same data truncated for another
// K — and checks every HypothesisCounts and one HypothesisGroup equal a
// fresh Scratch's with ==, so nothing a pass leaves in a Scratch leaks into
// the next. It also checks that Scratch.ApproxBytes counts the group
// state.
func TestScratchReuseFollowsEngineState(t *testing.T) {
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
	same := func(what string, row int, got, want [][]float64) {
		t.Helper()
		for j := range want {
			for y := range want[j] {
				if got[j][y] != want[j][y] {
					t.Fatalf("%s: row %d pin %d: reused Scratch %v, fresh %v", what, row, j, got[j], want[j])
				}
			}
		}
	}
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
		var group []int
		for _, row := range rows {
			if e.Pin(row) >= 0 || slices.Contains(group, row) {
				continue
			}
			group = append(group, row)
			same(what, row, e.HypothesisCounts(sc, row), e.HypothesisCounts(e.MustScratch(k), row))
		}
		fresh := e.MustScratch(k)
		want := make([][][]float64, len(group))
		for g, row := range group {
			want[g] = cloneHyp(e.HypothesisCounts(fresh, row))
		}
		for g, got := range groupResults(e, sc, group) {
			same(what+" (group)", group[g], got, want[g])
		}
	}
	pinned := int(e.inst.rows[e.live[len(e.live)-1]])
	check("unpinned", e)
	if sc.ApproxBytes() <= before {
		t.Fatalf("Scratch.ApproxBytes %d after a group pass, %d before", sc.ApproxBytes(), before)
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
}
