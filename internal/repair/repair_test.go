package repair

import (
	"math/rand"
	"testing"

	"repro/internal/table"
)

func dirtyPair(n int, seed int64) (dirty, truth *table.Table) {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	c := make([]string, n)
	labels := make([]int, n)
	cats := []string{"a", "b", "c", "d", "e", "f"}
	for i := range x {
		x[i] = float64(i)
		c[i] = cats[rng.Intn(len(cats))]
		labels[i] = i % 2
	}
	truth = table.MustNew([]*table.Column{
		table.NewNumeric("x", x),
		table.NewCategorical("c", c),
	}, labels, 2)
	dirty = truth.Clone()
	dirty.Cols[0].SetMissing(1)
	dirty.Cols[1].SetMissing(2)
	dirty.Cols[0].SetMissing(3)
	dirty.Cols[1].SetMissing(3) // row 3: two missing cells
	return dirty, truth
}

func TestNumericCandidatesFivePoint(t *testing.T) {
	c := table.NewNumeric("x", []float64{0, 1, 2, 3, 4})
	got := NumericCandidates(c)
	want := []float64{0, 1, 2, 3, 4}
	if len(got) != 5 {
		t.Fatalf("candidates = %v", got)
	}
	for i, cell := range got {
		if cell.Num != want[i] {
			t.Fatalf("candidate %d = %v, want %v", i, cell.Num, want[i])
		}
	}
}

func TestNumericCandidatesDedup(t *testing.T) {
	c := table.NewNumeric("x", []float64{5, 5, 5})
	got := NumericCandidates(c)
	if len(got) != 1 || got[0].Num != 5 {
		t.Fatalf("constant column candidates = %v", got)
	}
}

func TestCategoricalCandidates(t *testing.T) {
	c := table.NewCategorical("c", []string{"a", "a", "b", "b", "c", "d", "e"})
	got := CategoricalCandidates(c, 4)
	if len(got) != 5 {
		t.Fatalf("%d candidates", len(got))
	}
	if got[len(got)-1].Cat != OtherCategory {
		t.Fatalf("last candidate = %v", got[len(got)-1])
	}
}

func TestGenerateShapes(t *testing.T) {
	dirty, truth := dirtyPair(12, 1)
	enc := table.FitEncoder(dirty, 0)
	reps, err := Generate(dirty, truth, enc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := reps.Dataset
	if d.N() != 12 {
		t.Fatalf("N = %d", d.N())
	}
	// Clean rows have one candidate.
	for _, i := range []int{0, 4, 5} {
		if d.Examples[i].M() != 1 {
			t.Fatalf("clean row %d has %d candidates", i, d.Examples[i].M())
		}
	}
	// Row 1: one numeric missing cell → 5 candidates.
	if d.Examples[1].M() != 5 {
		t.Fatalf("row 1 has %d candidates", d.Examples[1].M())
	}
	// Row 2: one categorical missing cell → 5 candidates (top-4 + other).
	if d.Examples[2].M() != 5 {
		t.Fatalf("row 2 has %d candidates", d.Examples[2].M())
	}
	// Row 3: Cartesian product 5×5 = 25.
	if d.Examples[3].M() != 25 {
		t.Fatalf("row 3 has %d candidates", d.Examples[3].M())
	}
	if got := reps.DirtyRows; len(got) != 3 {
		t.Fatalf("dirty rows = %v", got)
	}
}

// TestDirtyRowsNeedTwoCandidates checks that a row whose missing cell has
// a single possible repair (a constant column) is not listed as dirty: no
// cleaner can clean it.
func TestDirtyRowsNeedTwoCandidates(t *testing.T) {
	truth := table.MustNew([]*table.Column{table.NewNumeric("x", []float64{5, 5, 5, 5})}, []int{0, 1, 0, 1}, 2)
	dirty := truth.Clone()
	dirty.Cols[0].SetMissing(2)
	reps, err := Generate(dirty, truth, table.FitEncoder(dirty, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m := reps.Dataset.Examples[2].M(); m != 1 {
		t.Fatalf("row 2 has %d candidates, want 1", m)
	}
	if len(reps.DirtyRows) != 0 {
		t.Fatalf("dirty rows = %v, want none", reps.DirtyRows)
	}
}

func TestGenerateMaxRowCandidatesCap(t *testing.T) {
	dirty, truth := dirtyPair(12, 2)
	enc := table.FitEncoder(dirty, 0)
	reps, err := Generate(dirty, truth, enc, Options{MaxRowCandidates: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reps.Dataset.Examples {
		if m := reps.Dataset.Examples[i].M(); m > 7 {
			t.Fatalf("row %d has %d candidates, cap 7", i, m)
		}
	}
}

func TestOraclePicksClosestNumeric(t *testing.T) {
	dirty, truth := dirtyPair(12, 3)
	enc := table.FitEncoder(dirty, 0)
	reps, err := Generate(dirty, truth, enc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Row 1's truth is x = 1; the candidate set is {min, p25, mean, p75,
	// max} of the observed column. The oracle must pick the numerically
	// closest.
	j := reps.Truth[1]
	ov := reps.Overrides[1][j]
	cell := ov[0]
	bestDist := -1.0
	for _, alt := range reps.Overrides[1] {
		d := alt[0].Num - 1
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			bestDist = d
		}
	}
	got := cell.Num - 1
	if got < 0 {
		got = -got
	}
	if got != bestDist {
		t.Fatalf("oracle picked %v (|Δ|=%v), best |Δ|=%v", cell.Num, got, bestDist)
	}
}

func TestOracleExactCategoricalMatch(t *testing.T) {
	// Construct a categorical column where the truth is a frequent category:
	// the oracle must select it exactly.
	truth := table.MustNew([]*table.Column{
		table.NewCategorical("c", []string{"a", "a", "a", "b", "b", "x"}),
	}, []int{0, 1, 0, 1, 0, 1}, 2)
	dirty := truth.Clone()
	dirty.Cols[0].SetMissing(0) // truth "a", the mode
	dirty.Cols[0].SetMissing(5) // truth "x", a rare category outside top-4
	enc := table.FitEncoder(dirty, 0)
	reps, err := Generate(dirty, truth, enc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reps.Overrides[0][reps.Truth[0]][0].Cat; got != "a" {
		t.Fatalf("oracle chose %q for truth 'a'", got)
	}
	// Truth "x" is not among the frequent categories: OtherCategory is the
	// honest answer.
	if got := reps.Overrides[5][reps.Truth[5]][0].Cat; got != OtherCategory {
		t.Fatalf("oracle chose %q for rare truth", got)
	}
}

func TestGenerateWithoutTruth(t *testing.T) {
	dirty, _ := dirtyPair(12, 4)
	enc := table.FitEncoder(dirty, 0)
	reps, err := Generate(dirty, nil, enc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range reps.Truth {
		if j != 0 {
			t.Fatal("truth indices should be zero without an oracle")
		}
	}
}

func TestGenerateRowMismatch(t *testing.T) {
	dirty, truth := dirtyPair(12, 5)
	enc := table.FitEncoder(dirty, 0)
	if _, err := Generate(dirty, truth.Subset([]int{0, 1}), enc, Options{}); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
}

func TestCandidatesEncodeDistinctly(t *testing.T) {
	dirty, truth := dirtyPair(12, 6)
	enc := table.FitEncoder(dirty, 0)
	reps, err := Generate(dirty, truth, enc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Row 1's five numeric candidates must produce five distinct encodings.
	seen := map[float64]bool{}
	for _, cand := range reps.Dataset.Examples[1].Candidates {
		seen[cand[0]] = true
	}
	if len(seen) != 5 {
		t.Fatalf("only %d distinct encoded values", len(seen))
	}
}
