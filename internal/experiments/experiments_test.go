package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/serve"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", "paper"} {
		sc, err := ScaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name != name {
			t.Fatalf("scale %q has name %q", name, sc.Name)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestSpecByName(t *testing.T) {
	specs := Specs()
	if len(specs) != 4 {
		t.Fatalf("%d specs", len(specs))
	}
	for _, s := range specs {
		got, err := SpecByName(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != s.Name {
			t.Fatalf("resolved %q", got.Name)
		}
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestBuildTaskShapes(t *testing.T) {
	for _, spec := range Specs() {
		task, err := BuildTask(spec, Tiny, 3, 0)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if task.Dirty.NumRows() != Tiny.TrainN {
			t.Fatalf("%s: train %d", spec.Name, task.Dirty.NumRows())
		}
		if task.Val.NumRows() != Tiny.ValN || task.Test.NumRows() != Tiny.TestN {
			t.Fatalf("%s: val/test %d/%d", spec.Name, task.Val.NumRows(), task.Test.NumRows())
		}
		if len(task.Repairs.DirtyRows) == 0 {
			t.Fatalf("%s: no dirty rows", spec.Name)
		}
		if task.Truth.MissingCellRate() != 0 {
			t.Fatalf("%s: truth table has missing cells", spec.Name)
		}
	}
}

func TestBuildTaskValOverride(t *testing.T) {
	spec, _ := SpecByName("Supreme")
	task, err := BuildTask(spec, Tiny, 3, 25)
	if err != nil {
		t.Fatal(err)
	}
	if task.Val.NumRows() != 25 {
		t.Fatalf("val override ignored: %d", task.Val.NumRows())
	}
}

func TestRunTable1(t *testing.T) {
	rows, err := RunTable1(Tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Examples != Tiny.TrainN {
			t.Fatalf("%s: %d examples", r.Dataset, r.Examples)
		}
		if r.MissingRowRate <= 0 || r.Candidates <= r.Examples {
			t.Fatalf("%s: rate=%v candidates=%d", r.Dataset, r.MissingRowRate, r.Candidates)
		}
	}
	rep := Table1Report(rows).String()
	if !strings.Contains(rep, "BabyProduct") || !strings.Contains(rep, "Puma") {
		t.Fatalf("report missing datasets:\n%s", rep)
	}
}

func TestRunFigure4ShapesAndScaling(t *testing.T) {
	rows := RunFigure4([]int{60, 120}, 1)
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Elapsed <= 0 {
			t.Fatalf("%s N=%d: non-positive elapsed", r.Algorithm, r.N)
		}
	}
	rep := Figure4Report(rows).String()
	if !strings.Contains(rep, "SS-DC") || !strings.Contains(rep, "MM") {
		t.Fatalf("report incomplete:\n%s", rep)
	}
}

func TestFigure10ValSizes(t *testing.T) {
	sizes := Figure10ValSizes(Small)
	if len(sizes) != 4 {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("sizes not increasing: %v", sizes)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tb.AddRow("x", "y")
	out := tb.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "a") {
		t.Fatalf("render:\n%s", out)
	}
	var csv strings.Builder
	tb.RenderCSV(&csv)
	if !strings.HasPrefix(csv.String(), "a,bb\n") {
		t.Fatalf("csv:\n%s", csv.String())
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := &Table{Headers: []string{"a"}}
	tb.AddRow(`va"l,ue`)
	var csv strings.Builder
	tb.RenderCSV(&csv)
	if !strings.Contains(csv.String(), `"va""l,ue"`) {
		t.Fatalf("csv quoting:\n%s", csv.String())
	}
}

// TestRunTable2TinySmoke runs the full Table 2 pipeline on one dataset at
// tiny scale — the end-to-end integration test of the whole repository.
func TestRunTable2TinySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny Table 2 run skipped in -short mode")
	}
	spec, _ := SpecByName("Supreme")
	row, err := RunTable2Dataset(spec, Tiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.GroundTruthAcc <= 0.5 {
		t.Fatalf("GT accuracy %v", row.GroundTruthAcc)
	}
	if row.CPCleanCleaned <= 0 || row.CPCleanCleaned > 1 {
		t.Fatalf("cleaned fraction %v", row.CPCleanCleaned)
	}
	rep := Table2Report([]*Table2Row{row}).String()
	if !strings.Contains(rep, "Supreme") {
		t.Fatalf("report:\n%s", rep)
	}
}

// TestRunFigure9TinySmoke checks both trajectories exist and are monotone in
// certification.
func TestRunFigure9TinySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny Figure 9 run skipped in -short mode")
	}
	spec, _ := SpecByName("Supreme")
	r, err := RunFigure9Dataset(spec, Tiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CPClean) == 0 || len(r.Random) == 0 {
		t.Fatal("empty trajectories")
	}
	prev := -1.0
	for _, p := range r.CPClean {
		if p.ValCertainFrac < prev-1e-9 {
			t.Fatalf("CPClean certification not monotone: %v after %v", p.ValCertainFrac, prev)
		}
		prev = p.ValCertainFrac
	}
	if r.CleanedToCertifyCP > r.CleanedToCertifyRandom+0.15 {
		t.Fatalf("CPClean certified at %v, random at %v — greedy not helping",
			r.CleanedToCertifyCP, r.CleanedToCertifyRandom)
	}
	_ = Figure9Report(r).String()
}

// TestBuildTaskOutputPinned pins what BuildTask generates — the dataset
// fingerprint (serve.Fingerprint: every candidate's bits and every label)
// and a SHA-256 of the oracle's truth choices — for Supreme at two
// training sizes. The values were taken before repair's oracle stopped
// re-sorting a column per numeric cell; any change to the generated data
// fails here.
func TestBuildTaskOutputPinned(t *testing.T) {
	spec, err := SpecByName("Supreme")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trainN      int
		fingerprint string
		truth       string
	}{
		{400, "a68a1a860aad642897fe21b4a584a8aafa9cbd34ce8cb58d8d0887e1a202b6a9", "5d61ca9d2ac56551ecc761b06c83d61c522d415c572d8e398dd35980cfcfbeec"},
		{1500, "f55361a9d7d2cd2a713c46f93afc0bbf652f68a3ab7914b584279b2927c6f172", "9b76716eef783d2fda8dc5fc37e061dc8e72b286bd163cde13596e89997c0f42"},
	} {
		task, err := BuildTask(spec, Scale{Name: "pinned", TrainN: tc.trainN, ValN: 20, TestN: 20, MissingCellRate: 0.2}, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, v := range task.OracleWorld() {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		if got := serve.Fingerprint(task.Dataset(), Kernel(), ModelK); got != tc.fingerprint {
			t.Errorf("N=%d: dataset fingerprint %s, want %s", tc.trainN, got, tc.fingerprint)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.truth {
			t.Errorf("N=%d: oracle truth hash %s, want %s", tc.trainN, got, tc.truth)
		}
	}
}
