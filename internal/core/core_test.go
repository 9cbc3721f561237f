package core

import (
	"math"
	"math/rand"
	"testing"
)

// randomInstance builds a random instance with n rows, candidate counts in
// [1, maxM], and the given label count.
func randomInstance(rng *rand.Rand, n, maxM, numLabels int) *Instance {
	sims := make([][]float64, n)
	labels := make([]int, n)
	for i := range sims {
		m := 1 + rng.Intn(maxM)
		row := make([]float64, m)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		sims[i] = row
		labels[i] = rng.Intn(numLabels)
	}
	// Ensure every label appears at least once so votes are interesting.
	for l := 0; l < numLabels && l < n; l++ {
		labels[l] = l
	}
	return MustNewInstance(sims, labels, numLabels)
}

// tiedInstance returns an instance with deliberately duplicated similarity
// values to exercise the total-order tie-breaking.
func tiedInstance(rng *rand.Rand, n, maxM, numLabels int) *Instance {
	inst := randomInstance(rng, n, maxM, numLabels)
	vals := []float64{-1, 0, 0.5, 1}
	for i := 0; i < inst.N(); i++ {
		row := inst.Row(i)
		for j := range row {
			row[j] = vals[rng.Intn(len(vals))]
		}
	}
	return inst
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestBruteForceTotalsAndConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 3+rng.Intn(4), 3, 2)
		k := 1 + rng.Intn(3)
		counts, err := BruteForceCounts(inst, k)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		if !counts.Consistent() {
			t.Fatalf("trial %d: per-label counts %v do not sum to total %s", trial, counts.PerLabel, counts.Total)
		}
	}
}

func TestSSExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		numLabels := 2 + rng.Intn(2)
		inst := randomInstance(rng, 3+rng.Intn(4), 3, numLabels)
		k := 1 + rng.Intn(min(3, inst.N()))
		want, err := BruteForceCounts(inst, k)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		got, err := SSExactCounts(inst, k)
		if err != nil {
			t.Fatalf("ss exact: %v", err)
		}
		for y := range want.PerLabel {
			if want.PerLabel[y].Cmp(got.PerLabel[y]) != 0 {
				t.Fatalf("trial %d (N=%d K=%d |Y|=%d): label %d brute=%s ss=%s",
					trial, inst.N(), k, numLabels, y, want.PerLabel[y], got.PerLabel[y])
			}
		}
		if !got.Consistent() {
			t.Fatalf("trial %d: SS counts inconsistent: %s vs total %s", trial, got.Sum(), got.Total)
		}
	}
}

func TestSSExactMatchesBruteForceWithTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		inst := tiedInstance(rng, 3+rng.Intn(4), 3, 2)
		k := 1 + rng.Intn(min(3, inst.N()))
		want, err := BruteForceCounts(inst, k)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		got, err := SSExactCounts(inst, k)
		if err != nil {
			t.Fatalf("ss exact: %v", err)
		}
		for y := range want.PerLabel {
			if want.PerLabel[y].Cmp(got.PerLabel[y]) != 0 {
				t.Fatalf("tied trial %d: label %d brute=%s ss=%s", trial, y, want.PerLabel[y], got.PerLabel[y])
			}
		}
	}
}

func TestSSFastMatchesBruteForceK1(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		numLabels := 2 + rng.Intn(3)
		inst := randomInstance(rng, 3+rng.Intn(5), 3, numLabels)
		want, err := BruteForceCounts(inst, 1)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		gotNorm := SSFastCounts(inst)
		if d := maxAbsDiff(gotNorm, want.Normalize()); d > 1e-9 {
			t.Fatalf("trial %d: fast float counts off by %g: got %v want %v", trial, d, gotNorm, want.Normalize())
		}
		gotExact := SSFastExactCounts(inst)
		for y := range want.PerLabel {
			if want.PerLabel[y].Cmp(gotExact.PerLabel[y]) != 0 {
				t.Fatalf("trial %d: label %d brute=%s fast-exact=%s", trial, y, want.PerLabel[y], gotExact.PerLabel[y])
			}
		}
	}
}

func TestEngineSSDCMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		numLabels := 2 + rng.Intn(2)
		inst := randomInstance(rng, 3+rng.Intn(4), 3, numLabels)
		k := 1 + rng.Intn(min(3, inst.N()))
		want, err := BruteForceCounts(inst, k)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		e := NewEngineFromInstance(inst)
		sc := e.MustScratch(k)
		got := e.Counts(sc, -1, -1)
		if d := maxAbsDiff(got, want.Normalize()); d > 1e-9 {
			t.Fatalf("trial %d (N=%d K=%d |Y|=%d): ss-dc off by %g: got %v want %v",
				trial, inst.N(), k, numLabels, d, got, want.Normalize())
		}
	}
}

func TestEngineSSDCMCMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		numLabels := 2 + rng.Intn(3)
		inst := randomInstance(rng, 3+rng.Intn(4), 3, numLabels)
		k := 1 + rng.Intn(min(3, inst.N()))
		want, err := BruteForceCounts(inst, k)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		e := NewEngineFromInstance(inst)
		sc := e.MustScratch(k)
		got := e.CountsMC(sc, -1, -1)
		if d := maxAbsDiff(got, want.Normalize()); d > 1e-9 {
			t.Fatalf("trial %d (N=%d K=%d |Y|=%d): ss-dc-mc off by %g: got %v want %v",
				trial, inst.N(), k, numLabels, d, got, want.Normalize())
		}
	}
}

func TestMMMatchesBruteForceQ1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(rng, 3+rng.Intn(5), 3, 2)
		k := 1 + rng.Intn(min(3, inst.N()))
		want, err := BruteForceCheck(inst, k)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		got, err := MMCheck(inst, k)
		if err != nil {
			t.Fatalf("mm: %v", err)
		}
		for y := range want {
			if want[y] != got[y] {
				t.Fatalf("trial %d (N=%d K=%d): Q1 label %d brute=%v mm=%v", trial, inst.N(), k, y, want[y], got[y])
			}
		}
	}
}

func TestMMMatchesBruteForceQ1WithTies(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		inst := tiedInstance(rng, 3+rng.Intn(4), 3, 2)
		k := 1 + rng.Intn(min(3, inst.N()))
		want, err := BruteForceCheck(inst, k)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		got, err := MMCheck(inst, k)
		if err != nil {
			t.Fatalf("mm: %v", err)
		}
		for y := range want {
			if want[y] != got[y] {
				t.Fatalf("tied trial %d: Q1 label %d brute=%v mm=%v", trial, y, want[y], got[y])
			}
		}
	}
}

func TestMMRejectsMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := randomInstance(rng, 5, 3, 3)
	if _, err := MMCheck(inst, 1); err == nil {
		t.Fatal("MMCheck should reject |Y|=3")
	}
}

func TestEnginePinsMatchPinnedBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng, 4+rng.Intn(3), 3, 2)
		k := 1 + rng.Intn(3)
		e := NewEngineFromInstance(inst)
		sc := e.MustScratch(k)
		// Pin a random subset of rows.
		pinned := map[int]int{}
		for i := 0; i < inst.N(); i++ {
			if rng.Intn(2) == 0 {
				c := rng.Intn(inst.M(i))
				e.SetPin(i, c)
				pinned[i] = c
			}
		}
		// Reference: brute force over the reduced instance.
		redSims := make([][]float64, inst.N())
		labels := make([]int, inst.N())
		for i := range redSims {
			labels[i] = inst.Label(i)
			if c, ok := pinned[i]; ok {
				redSims[i] = []float64{inst.Row(i)[c]}
			} else {
				redSims[i] = inst.Row(i)
			}
		}
		// NOTE: pinning must preserve the total order, so the reduced
		// instance is only a valid reference when similarities are unique;
		// NormFloat64 candidates are unique almost surely.
		red := MustNewInstance(redSims, labels, inst.NumLabels)
		want, err := BruteForceCounts(red, k)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		got := e.Counts(sc, -1, -1)
		if d := maxAbsDiff(got, want.Normalize()); d > 1e-9 {
			t.Fatalf("trial %d: pinned counts off by %g: got %v want %v", trial, d, got, want.Normalize())
		}
		// MM under pins must agree with brute-force Q1 on the reduced instance.
		gotQ1, err := e.CheckMM(k, -1, -1)
		if err != nil {
			t.Fatalf("mm: %v", err)
		}
		wantQ1 := CheckFromExact(want)
		for y := range wantQ1 {
			if gotQ1[y] != wantQ1[y] {
				t.Fatalf("trial %d: pinned Q1 label %d got %v want %v", trial, y, gotQ1[y], wantQ1[y])
			}
		}
	}
}

// TestEngineOverrideEqualsPin checks a per-query override answers exactly
// (bit for bit) what pinning the row would, for both accumulators, on top of
// other rows' pins, and without mutating the engine.
func TestEngineOverrideEqualsPin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 5, 3, 2)
		k := 1 + rng.Intn(3)
		useMC := trial%2 == 1
		counts := func(e *Engine, sc *Scratch, row, cand int) []float64 {
			if useMC {
				return append([]float64(nil), e.CountsMC(sc, row, cand)...)
			}
			return append([]float64(nil), e.Counts(sc, row, cand)...)
		}
		e := NewEngineFromInstance(inst)
		sc := e.MustScratch(k)
		if trial%3 == 0 {
			other := rng.Intn(inst.N())
			e.SetPin(other, rng.Intn(inst.M(other)))
		}
		row := rng.Intn(inst.N())
		cand := rng.Intn(inst.M(row))
		gen, before := e.PinGeneration(), e.Pin(row)
		viaOverride := counts(e, sc, row, cand)
		if e.PinGeneration() != gen || e.Pin(row) != before {
			t.Fatalf("trial %d: override mutated the engine", trial)
		}
		e.SetPin(row, cand)
		viaPin := counts(e, sc, -1, -1)
		for y := range viaPin {
			if viaOverride[y] != viaPin[y] {
				t.Fatalf("trial %d (mc=%v): override %v != pin %v", trial, useMC, viaOverride, viaPin)
			}
		}
	}
}

func TestQ2NormalizedSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 4+rng.Intn(20), 4, 2+rng.Intn(2))
		k := 1 + rng.Intn(3)
		e := NewEngineFromInstance(inst)
		sc := e.MustScratch(k)
		got := e.Counts(sc, -1, -1)
		sum := 0.0
		for _, v := range got {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: normalized Q2 sums to %v, want 1", trial, sum)
		}
	}
}

func TestCompositions(t *testing.T) {
	got := compositions(3, 2)
	want := [][]int{{0, 3}, {1, 2}, {2, 1}, {3, 0}}
	if len(got) != len(want) {
		t.Fatalf("compositions(3,2) = %v", got)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("compositions(3,2)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if n := len(compositions(3, 3)); n != 10 {
		t.Fatalf("|compositions(3,3)| = %d, want 10", n)
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{1, 0}); h != 0 {
		t.Fatalf("Entropy certain = %v", h)
	}
	if h := Entropy([]float64{0.5, 0.5}); math.Abs(h-math.Log(2)) > 1e-12 {
		t.Fatalf("Entropy uniform = %v, want ln 2", h)
	}
	if h := Entropy([]float64{0.25, 0.75}); h <= 0 || h >= math.Log(2) {
		t.Fatalf("Entropy skewed = %v out of (0, ln2)", h)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
