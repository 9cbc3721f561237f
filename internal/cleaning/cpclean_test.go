package cleaning

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/missing"
	"repro/internal/repair"
	"repro/internal/synth"
)

// makeTask builds a small end-to-end cleaning task from the Supreme
// generator with MNAR-injected missing values.
func makeTask(t testing.TB, n, valN, testN int, rate float64, seed int64) *Task {
	t.Helper()
	full := synth.Supreme(n+valN+testN, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	split, err := full.SplitRandom(rng, valN, testN)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	truth := split.Train
	dirty := truth.Clone()
	imp, err := missing.FeatureImportance(truth, 3, knn.NegEuclidean{}, rng, 0)
	if err != nil {
		t.Fatalf("importance: %v", err)
	}
	if err := missing.InjectMNARRows(dirty, rate, 0.25, imp, rng); err != nil {
		t.Fatalf("inject: %v", err)
	}
	task, err := NewTask(dirty, truth, split.Val, split.Test, 3, knn.NegEuclidean{}, repair.Options{})
	if err != nil {
		t.Fatalf("task: %v", err)
	}
	return task
}

func TestBaselinesRun(t *testing.T) {
	task := makeTask(t, 80, 20, 40, 0.1, 42)
	gt, err := GroundTruthAccuracy(task)
	if err != nil {
		t.Fatalf("ground truth: %v", err)
	}
	def, err := DefaultCleanAccuracy(task)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	if gt <= 0.5 {
		t.Fatalf("ground-truth accuracy %v suspiciously low", gt)
	}
	if def < 0 || def > 1 {
		t.Fatalf("default accuracy %v out of range", def)
	}
	bc, err := BoostClean(task, 1)
	if err != nil {
		t.Fatalf("boostclean: %v", err)
	}
	if bc.Accuracy < 0 || bc.Accuracy > 1 {
		t.Fatalf("boostclean accuracy %v out of range", bc.Accuracy)
	}
	if len(bc.SelectedMethods) == 0 {
		t.Fatal("boostclean selected no method")
	}
	hc, err := HoloCleanStyle(task, 10)
	if err != nil {
		t.Fatalf("holoclean: %v", err)
	}
	if hc.Imputed == 0 {
		t.Fatal("holoclean imputed nothing on a dirty table")
	}
}

func TestCPCleanConvergesAndMatchesGroundTruthValAccuracy(t *testing.T) {
	task := makeTask(t, 60, 15, 30, 0.12, 7)
	res, err := CPClean(task, DefaultOptions())
	if err != nil {
		t.Fatalf("cpclean: %v", err)
	}
	if res.AllCertainStep < 0 {
		t.Fatalf("CPClean did not certify all validation examples (cleaned %d rows)", len(res.Order))
	}
	// The paper's guarantee: once all validation examples are CP'ed, any
	// remaining possible world has the same *validation* accuracy as the
	// ground-truth world. Verify against the oracle world vs the current
	// mixed world.
	choiceA := task.DefaultWorld()
	for _, row := range res.Order {
		choiceA[row] = task.Repairs.Truth[row]
	}
	// World A: cleaned rows → oracle, uncleaned → default candidate.
	xa, ya := task.WorldX(choiceA)
	accA, err := task.ValAccuracyOnEncoded(xa, ya)
	if err != nil {
		t.Fatalf("accuracy: %v", err)
	}
	// World B: every row → its *first* candidate (an arbitrary other world).
	choiceB := make([]int, task.Dirty.NumRows())
	for _, row := range res.Order {
		choiceB[row] = task.Repairs.Truth[row]
	}
	xb, yb := task.WorldX(choiceB)
	accB, err := task.ValAccuracyOnEncoded(xb, yb)
	if err != nil {
		t.Fatalf("accuracy: %v", err)
	}
	if accA != accB {
		t.Fatalf("validation accuracy differs across possible worlds after full certification: %v vs %v", accA, accB)
	}
	// Monotonicity of certification: ValCertainFrac never decreases.
	prev := -1.0
	for _, s := range res.Steps {
		if s.ValCertainFrac < prev-1e-12 {
			t.Fatalf("ValCertainFrac decreased: %v after %v", s.ValCertainFrac, prev)
		}
		prev = s.ValCertainFrac
	}
}

func TestRandomCleanRunsToBudget(t *testing.T) {
	task := makeTask(t, 60, 15, 30, 0.12, 9)
	res, err := RandomClean(task, Options{MaxSteps: 5, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatalf("randomclean: %v", err)
	}
	if len(res.Order) > 5 {
		t.Fatalf("budget exceeded: cleaned %d rows", len(res.Order))
	}
	seen := map[int]bool{}
	for _, r := range res.Order {
		if seen[r] {
			t.Fatalf("row %d cleaned twice", r)
		}
		seen[r] = true
		if !task.Dirty.RowIsDirty(r) {
			t.Fatalf("cleaned row %d is not dirty", r)
		}
	}
}

func TestCPCleanBeatsRandomOnCertificationRate(t *testing.T) {
	task := makeTask(t, 70, 20, 30, 0.15, 11)
	cp, err := CPClean(task, DefaultOptions())
	if err != nil {
		t.Fatalf("cpclean: %v", err)
	}
	if cp.AllCertainStep < 0 {
		t.Skip("instance not certifiable within dirty rows")
	}
	// Average steps for Random to certify everything, over a few seeds.
	totalRandom := 0
	runs := 3
	for s := 0; s < runs; s++ {
		r, err := RandomClean(task, Options{Rand: rand.New(rand.NewSource(int64(s)))})
		if err != nil {
			t.Fatalf("randomclean: %v", err)
		}
		steps := r.AllCertainStep
		if steps < 0 {
			steps = len(r.Order)
		}
		totalRandom += steps
	}
	avgRandom := float64(totalRandom) / float64(runs)
	if float64(cp.AllCertainStep) > avgRandom+1 {
		t.Fatalf("CPClean needed %d cleanings, random average %.1f — greedy selection is not helping",
			cp.AllCertainStep, avgRandom)
	}
}

func TestGapClosed(t *testing.T) {
	if g := GapClosed(0.9, 0.8, 1.0); g != 0.5 {
		t.Fatalf("GapClosed = %v, want 0.5", g)
	}
	if g := GapClosed(0.7, 0.8, 1.0); g < -0.5-1e-9 || g > -0.5+1e-9 {
		t.Fatalf("GapClosed negative case = %v, want -0.5", g)
	}
	if g := GapClosed(0.9, 0.8, 0.8); g != 0 {
		t.Fatalf("GapClosed degenerate = %v, want 0", g)
	}
}

func TestDefaultWorldMatchesDefaultCleaning(t *testing.T) {
	task := makeTask(t, 50, 10, 20, 0.1, 13)
	// The mean/mode candidate world must reproduce Default Cleaning's
	// accuracy exactly: mean and mode are members of the candidate pools.
	x, y := task.WorldX(task.DefaultWorld())
	accWorld, err := task.AccuracyOnEncoded(x, y)
	if err != nil {
		t.Fatalf("accuracy: %v", err)
	}
	accDefault, err := DefaultCleanAccuracy(task)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	if accWorld != accDefault {
		t.Fatalf("default-candidate world accuracy %v != default cleaning accuracy %v", accWorld, accDefault)
	}
}

func TestTableHasMissingAfterInjection(t *testing.T) {
	task := makeTask(t, 50, 10, 20, 0.15, 17)
	if len(task.Repairs.DirtyRows) == 0 {
		t.Fatal("no dirty rows after MNAR injection")
	}
	if task.Dirty.MissingCellRate() == 0 {
		t.Fatal("zero missing-cell rate after injection")
	}
}

// benchSelection runs a full multi-round CPClean on the Figure-9-style
// workload of TestCPCleanIncrementalMatchesFullRescore and reports the
// hypothesis Q2 scans of the run. Comparing the Incremental and FullRescore
// variants shows the ≥2× round-over-round scan reduction the shared
// selection engine's memo buys (the wall-clock difference tracks it).
func benchSelection(b *testing.B, opts Options) {
	task := makeTask(b, 90, 20, 30, 0.3, 31)
	b.ResetTimer()
	var examined int64
	for i := 0; i < b.N; i++ {
		res, err := CPClean(task, opts)
		if err != nil {
			b.Fatal(err)
		}
		examined = res.ExaminedHypotheses
	}
	b.ReportMetric(float64(examined), "hyp-scans/run")
}

func BenchmarkSelection_Incremental(b *testing.B) { benchSelection(b, DefaultOptions()) }
func BenchmarkSelection_FullRescore(b *testing.B) {
	benchSelection(b, Options{DisableIncremental: true})
}

// TestCertificationSoundness is the strongest end-to-end check of the whole
// stack: after CPClean certifies every validation example, *every* possible
// world of the partially-cleaned dataset must predict identically on every
// validation example (Definition 3). We verify on a sample of random worlds
// plus the two extreme corners.
func TestCertificationSoundness(t *testing.T) {
	task := makeTask(t, 50, 12, 30, 0.2, 301)
	res, err := CPClean(task, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.AllCertainStep < 0 {
		t.Skip("not certifiable within the dirty rows")
	}
	// Partially-cleaned dataset: cleaned rows pinned to the oracle.
	d := task.Dataset()
	for _, row := range res.Order {
		d = d.Pin(row, task.Repairs.Truth[row])
	}
	rng := rand.New(rand.NewSource(99))
	worlds := make([][]int, 0, 12)
	for w := 0; w < 10; w++ {
		worlds = append(worlds, sampleChoice(d, rng))
	}
	first := make([]int, d.N())
	last := make([]int, d.N())
	for i := range last {
		last[i] = d.Examples[i].M() - 1
	}
	worlds = append(worlds, first, last)

	for vi, vx := range task.ValX {
		ref := -1
		for wi, choice := range worlds {
			x, y := d.World(choice)
			clf, err := knn.NewClassifier(task.K, task.Kernel, x, y, d.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			p := clf.Predict(vx)
			if ref == -1 {
				ref = p
			} else if p != ref {
				t.Fatalf("validation point %d: world %d predicts %d, world 0 predicts %d — certification unsound",
					vi, wi, p, ref)
			}
		}
	}
}

func sampleChoice(d *dataset.Incomplete, rng *rand.Rand) []int {
	choice := make([]int, d.N())
	for i := range choice {
		choice[i] = rng.Intn(d.Examples[i].M())
	}
	return choice
}

// TestCPCleanIncrementalMatchesFullRescore pins down the acceptance property
// of the shared selection engine: the memoized (incremental) selector and
// full per-round rescoring produce the SAME cleaning order and per-step
// entropies, while the memo performs at most half the hypothesis Q2 scans on
// a Figure-9-style multi-round workload.
func TestCPCleanIncrementalMatchesFullRescore(t *testing.T) {
	task := makeTask(t, 90, 20, 30, 0.3, 31)
	inc, err := CPClean(task, DefaultOptions())
	if err != nil {
		t.Fatalf("incremental: %v", err)
	}
	full, err := CPClean(task, Options{DisableIncremental: true})
	if err != nil {
		t.Fatalf("full rescore: %v", err)
	}
	if len(inc.Order) != len(full.Order) {
		t.Fatalf("cleaning orders differ in length: %d vs %d", len(inc.Order), len(full.Order))
	}
	for i := range inc.Order {
		if inc.Order[i] != full.Order[i] {
			t.Fatalf("cleaning orders diverge at step %d: %v vs %v", i, inc.Order, full.Order)
		}
		if inc.Steps[i+1].Entropy != full.Steps[i+1].Entropy {
			t.Fatalf("step %d entropy diverged: %v vs %v", i, inc.Steps[i+1].Entropy, full.Steps[i+1].Entropy)
		}
	}
	if len(inc.Order) < 3 {
		t.Fatalf("workload certified in %d steps — too few rounds to exercise the memo", len(inc.Order))
	}
	if inc.ExaminedHypotheses*2 > full.ExaminedHypotheses {
		t.Fatalf("incremental selection examined %d hypotheses, full rescoring %d — want ≥2× reduction",
			inc.ExaminedHypotheses, full.ExaminedHypotheses)
	}
}

// TestCPCleanBatchMode checks BatchSize > 1 still certifies and never cleans
// a row twice.
func TestCPCleanBatchMode(t *testing.T) {
	task := makeTask(t, 50, 12, 30, 0.2, 303)
	res, err := CPClean(task, Options{BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range res.Order {
		if seen[r] {
			t.Fatalf("row %d cleaned twice", r)
		}
		seen[r] = true
	}
	if res.AllCertainStep < 0 && len(res.Order) < len(task.Repairs.DirtyRows) {
		t.Fatal("batch run stopped early without certifying")
	}
}
