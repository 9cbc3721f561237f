package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// withFarRows returns d with extra rows appended whose every candidate lies
// far outside the unit cube the Supreme-shaped points live in, so a
// bound-first build proves them absent for any such test point.
func withFarRows(d *dataset.Incomplete, extra int, seed int64) *dataset.Incomplete {
	rng := rand.New(rand.NewSource(seed))
	examples := slices.Clone(d.Examples)
	for r := 0; r < extra; r++ {
		cands := make([][]float64, 1+rng.Intn(5))
		for j := range cands {
			c := make([]float64, 7)
			for f := range c {
				c[f] = 1e3 + rng.Float64()
			}
			cands[j] = c
		}
		examples = append(examples, dataset.Example{Candidates: cands, Label: rng.Intn(d.NumLabels)})
	}
	return dataset.MustNew(examples, d.NumLabels)
}

// TestAbsentRowsCostNothing appends 500 rows that every test point's
// bound-first build proves absent and checks they change nothing: the
// engine's ApproxBytes, and every Counts, CountsMC, HypothesisCounts,
// CheckMM and RelevantRows answer with ==, unpinned and with pins on both
// old rows and the appended ones. A pinned absent row keeps its leaf the
// identity, so it moves no answer either.
func TestAbsentRowsCostNothing(t *testing.T) {
	d, _ := supremeShaped(2201)
	far := withFarRows(d, 500, 2202)
	n := d.N()
	const k = 3
	for trial := 0; trial < 8; trial++ {
		_, p := supremeShaped(int64(2203 + trial))
		base := NewTruncatedEngine(d, knn.NegEuclidean{}, p, k)
		ext := NewTruncatedEngine(far, knn.NegEuclidean{}, p, k)
		for i := n; i < far.N(); i++ {
			if ext.Instance().Row(i) != nil {
				t.Fatalf("trial %d: appended row %d was evaluated", trial, i)
			}
		}
		if got, want := ext.ApproxBytes(), base.ApproxBytes(); got != want {
			t.Fatalf("trial %d: ApproxBytes %d with 500 absent rows, %d without", trial, got, want)
		}
		rng := rand.New(rand.NewSource(int64(trial)))
		bsc, esc := base.MustScratch(k), ext.MustScratch(k)
		check := func(what string) {
			t.Helper()
			equal := func(op string, got, want []float64) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d %s: %s = %v with absent rows, %v without", trial, what, op, got, want)
				}
			}
			clone := func(s []float64) []float64 { return slices.Clone(s) }
			counts := clone(base.Counts(bsc, -1, -1))
			equal("Counts", clone(ext.Counts(esc, -1, -1)), counts)
			equal("CountsMC", clone(ext.CountsMC(esc, -1, -1)), base.CountsMC(bsc, -1, -1))
			row := rng.Intn(n)
			cand := rng.Intn(d.Examples[row].M())
			equal("Counts override", clone(ext.Counts(esc, row, cand)), base.Counts(bsc, row, cand))
			for s := 0; s < 16; s++ {
				r := rng.Intn(n)
				if base.Pin(r) >= 0 {
					continue
				}
				got, want := ext.HypothesisCounts(esc, r), base.HypothesisCounts(bsc, r)
				for j := range want {
					equal("HypothesisCounts", got[j], want[j])
				}
			}
			// Pinning an absent row to any candidate leaves Q2 as it is.
			for s := 0; s < 4; s++ {
				r := n + rng.Intn(far.N()-n)
				if ext.Pin(r) >= 0 {
					continue
				}
				for j, got := range ext.HypothesisCounts(esc, r) {
					equal("HypothesisCounts of an absent row", got, counts)
					equal("Counts overriding an absent row", clone(ext.Counts(esc, r, j)), counts)
				}
			}
			for _, ov := range [][2]int{{-1, -1}, {row, cand}} {
				got, err := ext.CheckMM(k, ov[0], ov[1])
				if err != nil {
					t.Fatal(err)
				}
				want, err := base.CheckMM(k, ov[0], ov[1])
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d %s: CheckMM(override %v) %v with absent rows, %v without", trial, what, ov, got, want)
				}
			}
			rel, want := ext.RelevantRows(k), base.RelevantRows(k)
			if !slices.Equal(rel[:n], want) || slices.Contains(rel[n:], true) {
				t.Fatalf("trial %d %s: RelevantRows differs with absent rows", trial, what)
			}
		}
		check("unpinned")
		for s := 0; s < 3; s++ {
			row := rng.Intn(n)
			cand := rng.Intn(d.Examples[row].M())
			base.SetPin(row, cand)
			ext.SetPin(row, cand)
			r := n + rng.Intn(far.N()-n)
			ext.SetPin(r, rng.Intn(far.Examples[r].M()))
			check("pinned")
		}
	}
}

// TestSharedScratchAcrossEvaluatedSets runs one Scratch across engines of
// one dataset built for different test points — different evaluated and
// live rows, so every scan leaves α entries another engine's rows never
// seed — and checks each answer equals a fresh Scratch's with ==:
// Counts, CountsMC, and HypothesisCounts of live, evaluated-but-not-live
// and absent rows, pinned and unpinned.
func TestSharedScratchAcrossEvaluatedSets(t *testing.T) {
	d, _ := supremeShaped(2211)
	const k = 3
	engines := make([]*Engine, 6)
	for v := range engines {
		_, p := supremeShaped(int64(2212 + v))
		engines[v] = NewTruncatedEngine(d, knn.NegEuclidean{}, p, k)
		if v%2 == 1 {
			engines[v] = engines[v].Fork()
			engines[v].SetPin(v, 0)
		}
	}
	shared := engines[0].MustScratch(k)
	rng := rand.New(rand.NewSource(2218))
	clone := func(s []float64) []float64 { return slices.Clone(s) }
	for step := 0; step < 200; step++ {
		e := engines[rng.Intn(len(engines))]
		fresh := e.MustScratch(k)
		var row int
		switch rng.Intn(3) {
		case 0: // a live row
			row = int(e.inst.rows[e.live[rng.Intn(len(e.live))]])
		case 1: // an absent row
			row = rng.Intn(d.N())
			for e.inst.Row(row) != nil {
				row = rng.Intn(d.N())
			}
		default:
			row = rng.Intn(d.N())
		}
		if got, want := clone(e.Counts(shared, -1, -1)), e.Counts(fresh, -1, -1); !slices.Equal(got, want) {
			t.Fatalf("step %d: shared-scratch Counts %v, fresh %v", step, got, want)
		}
		if got, want := clone(e.CountsMC(shared, row, 0)), e.CountsMC(fresh, row, 0); !slices.Equal(got, want) {
			t.Fatalf("step %d: shared-scratch CountsMC override row %d %v, fresh %v", step, row, got, want)
		}
		if e.Pin(row) >= 0 {
			continue
		}
		got := e.HypothesisCounts(shared, row)
		want := e.HypothesisCounts(fresh, row)
		for j := range want {
			if !slices.Equal(got[j], want[j]) {
				t.Fatalf("step %d: shared-scratch HypothesisCounts row %d pin %d %v, fresh %v", step, row, j, got[j], want[j])
			}
		}
	}
}

// TestMoreSimilarPanicsOnAbsentRowOrCandidate checks Instance.MoreSimilar
// refuses a row the build proved absent and a candidate index outside
// [0, M), on either side, instead of comparing some other row's similarity.
func TestMoreSimilarPanicsOnAbsentRowOrCandidate(t *testing.T) {
	d, p := supremeShaped(2301)
	far := withFarRows(d, 20, 2302)
	truncated := NewTruncatedEngine(far, knn.NegEuclidean{}, p, 3).Instance()
	dense := MustNewInstance([][]float64{{0.5, 0.25}, {0.75}}, []int{0, 1}, 2)
	present := -1
	for i := 0; i < truncated.N(); i++ {
		if truncated.Row(i) != nil {
			present = i
			break
		}
	}
	absent := d.N()
	if present < 0 || truncated.Row(absent) != nil {
		t.Fatalf("want a present row and absent row %d; got present %d", absent, present)
	}
	m := truncated.M(present)
	for _, tc := range []struct {
		name           string
		in             *Instance
		i1, j1, i2, j2 int
	}{
		{"absent first", truncated, absent, 0, present, 0},
		{"absent second", truncated, present, 0, absent, 0},
		{"candidate M", truncated, present, m, present, 0},
		{"candidate -1", truncated, present, 0, present, -1},
		{"dense candidate M", dense, 1, 1, 0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: MoreSimilar(%d,%d,%d,%d) did not panic", tc.name, tc.i1, tc.j1, tc.i2, tc.j2)
				}
			}()
			tc.in.MoreSimilar(tc.i1, tc.j1, tc.i2, tc.j2)
		}()
	}
	if truncated.MoreSimilar(present, 0, present, 0) {
		t.Fatal("a candidate is more similar than itself")
	}
}
