package selection

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knn"
)

// randDataset builds a deterministic random incomplete dataset with
// label-dependent cluster centers and uncertainFrac of rows carrying m
// jittered candidates.
func randDataset(t testing.TB, n, m, numLabels, dim int, uncertainFrac float64, seed int64) *dataset.Incomplete {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	examples := make([]dataset.Example, n)
	for i := range examples {
		label := rng.Intn(numLabels)
		if i < numLabels {
			label = i
		}
		base := make([]float64, dim)
		for d := range base {
			base[d] = float64(label) + rng.NormFloat64()
		}
		cands := [][]float64{base}
		if rng.Float64() < uncertainFrac {
			for j := 1; j < m; j++ {
				c := make([]float64, dim)
				for d := range c {
					c[d] = base[d] + rng.NormFloat64()
				}
				cands = append(cands, c)
			}
		}
		examples[i] = dataset.Example{Candidates: cands, Label: label}
	}
	return dataset.MustNew(examples, numLabels)
}

// harness is one independent cleaning state: engines, certainty, selector.
type harness struct {
	d       *dataset.Incomplete
	k       int
	engines []*core.Engine
	certain []bool
	sel     *Selector
}

func newHarness(t *testing.T, d *dataset.Incomplete, valPts [][]float64, k int, cfg Config) *harness {
	t.Helper()
	h := &harness{d: d, k: k}
	h.engines = make([]*core.Engine, len(valPts))
	h.certain = make([]bool, len(valPts))
	for v, p := range valPts {
		h.engines[v] = core.NewEngine(d, knn.NegEuclidean{}, p)
	}
	pool, err := core.NewScratchPool(h.engines[0], k)
	if err != nil {
		t.Fatal(err)
	}
	h.refreshCertainty(t)
	cfg.K = k
	sel, err := New(h.engines, h.certain, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.sel = sel
	return h
}

func (h *harness) refreshCertainty(t *testing.T) {
	t.Helper()
	sc := h.engines[0].MustScratch(h.k)
	for v, e := range h.engines {
		if h.certain[v] {
			continue
		}
		if e.Instance().NumLabels == 2 {
			ok, err := e.IsCertainMM(h.k)
			if err != nil {
				t.Fatal(err)
			}
			h.certain[v] = ok
		} else {
			h.certain[v] = core.IsCertain(e.Counts(sc, -1, -1))
		}
	}
}

func (h *harness) allCertain() bool {
	for _, c := range h.certain {
		if !c {
			return false
		}
	}
	return true
}

func (h *harness) candidateRows() []int {
	var rows []int
	for i := 0; i < h.d.N(); i++ {
		if h.engines[0].Pin(i) < 0 && h.d.Examples[i].M() > 1 {
			rows = append(rows, i)
		}
	}
	return rows
}

func randPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for d := range p {
			p[d] = 2 * rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// runLockstep drives incremental and full-rescore selectors through one full
// greedy cleaning run, asserting identical selections and scores each round.
// Returns the per-selector lifetime scan counts.
func runLockstep(t *testing.T, numLabels int, useMC bool, seed int64) (inc, full int64) {
	t.Helper()
	d := randDataset(t, 28, 3, numLabels, 2, 0.6, seed)
	valPts := randPoints(10, 2, seed+1)
	a := newHarness(t, d, valPts, 3, Config{UseMC: useMC})
	b := newHarness(t, d, valPts, 3, Config{UseMC: useMC, DisableCache: true})
	rng := rand.New(rand.NewSource(seed + 2))
	for round := 0; ; round++ {
		if round > d.N() {
			t.Fatal("run did not terminate")
		}
		if a.allCertain() {
			break
		}
		rows := a.candidateRows()
		if len(rows) == 0 {
			break
		}
		batch := 1 + rng.Intn(2)
		rowsA, hA, _ := a.sel.SelectBatch(rows, batch)
		rowsB, hB, _ := b.sel.SelectBatch(rows, batch)
		if len(rowsA) != len(rowsB) {
			t.Fatalf("round %d: batch sizes diverged: %v vs %v", round, rowsA, rowsB)
		}
		for i := range rowsA {
			if rowsA[i] != rowsB[i] {
				t.Fatalf("round %d: incremental selected %v, full rescore %v", round, rowsA, rowsB)
			}
			if hA[i] != hB[i] {
				t.Fatalf("round %d: entropy diverged for row %d: %v vs %v", round, rowsA[i], hA[i], hB[i])
			}
		}
		// Clean only the first of the batch (pin timing relative to the next
		// scoring round is what the memo must survive).
		cand := rng.Intn(d.Examples[rowsA[0]].M())
		a.sel.Pin(rowsA[0], cand)
		b.sel.Pin(rowsB[0], cand)
		a.refreshCertainty(t)
		b.refreshCertainty(t)
	}
	ia, _ := a.sel.Stats()
	ib, _ := b.sel.Stats()
	return ia, ib
}

// TestIncrementalMatchesFullRescore is the central property test: across a
// whole multi-round greedy run, the memoized selector returns exactly the
// rows and entropies of per-round full rescoring, for binary SS-DC,
// multi-class, and the MC query path.
func TestIncrementalMatchesFullRescore(t *testing.T) {
	cases := []struct {
		name      string
		numLabels int
		useMC     bool
		seed      int64
	}{
		{"binary", 2, false, 101},
		{"multiclass", 3, false, 202},
		{"binary-mc", 2, true, 303},
	}
	savedSomewhere := false
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inc, full := runLockstep(t, c.numLabels, c.useMC, c.seed)
			if inc > full {
				t.Fatalf("incremental performed MORE scans than full rescore: %d vs %d", inc, full)
			}
			if inc < full {
				savedSomewhere = true
			}
		})
	}
	if !savedSomewhere {
		t.Fatal("memo never saved a single scan across all cases; cache is inert")
	}
}

// TestRetainedRescoreLockstep drives the default selector through a whole
// run and checks, every round, that each scored point's memoized current
// entropy and relevance mask — kept across irrelevant pins, rebuilt by one
// sweep after a relevant one — equal those of a freshly built engine under
// the same pins, bit for bit.
func TestRetainedRescoreLockstep(t *testing.T) {
	d := randDataset(t, 30, 3, 2, 2, 0.6, 404)
	valPts := randPoints(10, 2, 405)
	a := newHarness(t, d, valPts, 3, Config{})
	rng := rand.New(rand.NewSource(406))
	kept := 0
	for round := 0; round <= d.N() && !a.allCertain(); round++ {
		rows := a.candidateRows()
		if len(rows) == 0 {
			break
		}
		sweeps := make([]int64, len(valPts))
		for v, m := range a.sel.memos {
			sweeps[v] = m.rt.Stats().FullScans
		}
		best, _, _ := a.sel.SelectBatch(rows, 1)
		for v, m := range a.sel.memos {
			if round > 0 && !a.certain[v] && m.rt.Stats().FullScans == sweeps[v] {
				kept++ // the memo survived last round's pin without a rescore
			}
		}
		for v, p := range valPts {
			m := &a.sel.memos[v]
			if a.certain[v] {
				continue
			}
			fresh := core.NewEngine(d, knn.NegEuclidean{}, p)
			for i := 0; i < d.N(); i++ {
				if c := a.engines[v].Pin(i); c >= 0 {
					fresh.SetPin(i, c)
				}
			}
			wantH := core.Entropy(fresh.Counts(fresh.MustScratch(3), -1, -1))
			if m.curH != wantH || !slices.Equal(m.rt.Relevant(), fresh.RelevantRows(3)) {
				t.Fatalf("round %d point %d: memo entropy %v, fresh engine %v (or masks differ)", round, v, m.curH, wantH)
			}
		}
		cand := rng.Intn(d.Examples[best[0]].M())
		a.sel.Pin(best[0], cand)
		a.refreshCertainty(t)
	}
	if kept == 0 {
		t.Fatal("no memo ever survived a pin; the relevance lemma never fired")
	}
}

// TestSelectorSurvivesOutOfBandPins pins engines directly (bypassing
// Selector.Pin) and checks every round's selection against a full rescore:
// each point's Retained picks the pins up from its engine, keeping the memo
// only across pins its relevance mask proves irrelevant.
func TestSelectorSurvivesOutOfBandPins(t *testing.T) {
	d := randDataset(t, 24, 3, 2, 2, 0.6, 77)
	valPts := randPoints(8, 2, 78)
	a := newHarness(t, d, valPts, 3, Config{})
	b := newHarness(t, d, valPts, 3, Config{DisableCache: true})
	rng := rand.New(rand.NewSource(79))
	for round := 0; round < 6 && !a.allCertain(); round++ {
		rows := a.candidateRows()
		if len(rows) == 0 {
			break
		}
		rowsA, hA, _ := a.sel.SelectBatch(rows, 1)
		rowsB, hB, _ := b.sel.SelectBatch(rows, 1)
		if rowsA[0] != rowsB[0] || hA[0] != hB[0] {
			t.Fatalf("round %d diverged after out-of-band pins: row %d (H=%v) vs row %d (H=%v)",
				round, rowsA[0], hA[0], rowsB[0], hB[0])
		}
		cand := rng.Intn(d.Examples[rowsA[0]].M())
		// Out-of-band: mutate the engines behind both selectors' backs.
		for _, e := range a.engines {
			e.SetPin(rowsA[0], cand)
		}
		for _, e := range b.engines {
			e.SetPin(rowsB[0], cand)
		}
		a.refreshCertainty(t)
		b.refreshCertainty(t)
	}
}

// TestSkipCertainAblation checks DisableSkipCertain scores certain points
// too, costing extra scans but never changing which rows exist to score.
func TestSkipCertainAblation(t *testing.T) {
	d := randDataset(t, 24, 3, 2, 2, 0.5, 55)
	valPts := randPoints(8, 2, 56)
	plain := newHarness(t, d, valPts, 3, Config{DisableCache: true})
	noskip := newHarness(t, d, valPts, 3, Config{DisableCache: true, DisableSkipCertain: true})
	rows := plain.candidateRows()
	if len(rows) == 0 {
		t.Skip("no uncertain rows")
	}
	_, _, exPlain := plain.sel.SelectBatch(rows, 1)
	_, _, exNoskip := noskip.sel.SelectBatch(rows, 1)
	certains := 0
	for _, c := range plain.certain {
		if c {
			certains++
		}
	}
	if certains > 0 && exNoskip <= exPlain {
		t.Fatalf("ablation with %d certain points examined %d hypotheses, skip path %d — skip lemma saved nothing",
			certains, exNoskip, exPlain)
	}
}

// TestNewValidation covers constructor error paths.
func TestNewValidation(t *testing.T) {
	d := randDataset(t, 10, 2, 2, 2, 0.5, 91)
	e := core.NewEngine(d, knn.NegEuclidean{}, []float64{0, 0})
	pool, err := core.NewScratchPool(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, nil, pool, Config{K: 3}); err == nil {
		t.Fatal("accepted zero engines")
	}
	if _, err := New([]*core.Engine{e}, make([]bool, 2), pool, Config{K: 3}); err == nil {
		t.Fatal("accepted mismatched certainty mask")
	}
	if _, err := New([]*core.Engine{e}, make([]bool, 1), pool, Config{K: 0}); err == nil {
		t.Fatal("accepted K=0")
	}
	if _, err := New([]*core.Engine{e}, make([]bool, 1), nil, Config{K: 3}); err == nil {
		t.Fatal("accepted nil scratch pool")
	}
}

// rowMajorSelectBatch is the reference SelectBatch's point-major scoring is
// tested against: the row-major loop it replaced, run sequentially. For
// each row in turn it walks the validation points in order, adding the
// current entropy of an irrelevant point, the memo of a memoized pair, or
// the pair's freshly scored entropy sum (stored in the memo), and counts
// the scored and memoized hypotheses. It shares s's memos, refresh and
// counters, and sorts and cuts the batch as SelectBatch does.
func rowMajorSelectBatch(s *Selector, rows []int, batch int) (bestRows []int, bestEntropies []float64, examined int64) {
	inst := s.engines[0].Instance()
	var valIdx []int
	for v, c := range s.certain {
		if !c || s.cfg.DisableSkipCertain {
			valIdx = append(valIdx, v)
		}
	}
	s.refresh(valIdx)
	sc := s.scratches.Get()
	defer s.scratches.Put(sc)
	type rowScore struct {
		row     int
		entropy float64
	}
	var scores []rowScore
	var reused int64
	for _, row := range rows {
		m := inst.M(row)
		total := 0.0
		for _, v := range valIdx {
			memo := &s.memos[v]
			if !memo.rt.Relevant()[row] {
				total += float64(memo.curH * float64(m))
				continue
			}
			if sum := memo.hypSum[row]; !math.IsNaN(sum) {
				total += sum
				reused += int64(m)
				continue
			}
			e := s.engines[v]
			sum := 0.0
			if s.cfg.UseMC {
				for j := 0; j < m; j++ {
					sum += core.Entropy(e.CountsMC(sc, row, j))
				}
			} else {
				for _, p := range e.HypothesisCounts(sc, row) {
					sum += core.Entropy(p)
				}
			}
			memo.hypSum[row] = sum
			total += sum
			examined += int64(m)
		}
		scores = append(scores, rowScore{row, total / float64(m) / float64(len(s.certain))})
	}
	s.examined += examined
	s.reused += reused
	sort.Slice(scores, func(a, b int) bool {
		if scores[a].entropy != scores[b].entropy {
			return scores[a].entropy < scores[b].entropy
		}
		return scores[a].row < scores[b].row
	})
	for _, rs := range scores[:min(batch, len(scores))] {
		bestRows = append(bestRows, rs.row)
		bestEntropies = append(bestEntropies, rs.entropy)
	}
	return bestRows, bestEntropies, examined
}

// TestPointMajorMatchesRowMajor runs SelectBatch and the row-major
// reference side by side through whole cleaning runs — binary and
// three-label data, the default configuration, UseMC, DisableCache and
// DisableSkipCertain, two scoring workers — and checks that every round
// selects the same rows with the same entropies, bit for bit, and that the
// per-round examined count and the lifetime examined and reused counts are
// the same.
func TestPointMajorMatchesRowMajor(t *testing.T) {
	cases := []struct {
		name      string
		numLabels int
		cfg       Config
	}{
		{"default", 2, Config{}},
		{"multiclass", 3, Config{}},
		{"mc", 2, Config{UseMC: true}},
		{"no-cache", 2, Config{DisableCache: true}},
		{"no-skip-certain", 3, Config{DisableSkipCertain: true}},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seed := int64(2501 + 10*ci)
			d := randDataset(t, 30, 3, c.numLabels, 2, 0.6, seed)
			valPts := randPoints(10, 2, seed+1)
			c.cfg.Parallelism = 2
			a := newHarness(t, d, valPts, 3, c.cfg)
			b := newHarness(t, d, valPts, 3, c.cfg)
			rng := rand.New(rand.NewSource(seed + 2))
			rounds := 0
			for ; rounds <= d.N() && !a.allCertain(); rounds++ {
				rows := a.candidateRows()
				if len(rows) == 0 {
					break
				}
				batch := 1 + rng.Intn(3)
				rowsA, hA, exA := a.sel.SelectBatch(rows, batch)
				rowsB, hB, exB := rowMajorSelectBatch(b.sel, rows, batch)
				if !slices.Equal(rowsA, rowsB) || exA != exB {
					t.Fatalf("round %d: point-major %v (examined %d), row-major %v (examined %d)", rounds, rowsA, exA, rowsB, exB)
				}
				for i := range hA {
					if math.Float64bits(hA[i]) != math.Float64bits(hB[i]) {
						t.Fatalf("round %d: row %d entropy %v, row-major %v", rounds, rowsA[i], hA[i], hB[i])
					}
				}
				cand := rng.Intn(d.Examples[rowsA[0]].M())
				a.sel.Pin(rowsA[0], cand)
				b.sel.Pin(rowsB[0], cand)
				a.refreshCertainty(t)
				b.refreshCertainty(t)
			}
			exA, reA := a.sel.Stats()
			exB, reB := b.sel.Stats()
			if exA != exB || reA != reB {
				t.Fatalf("lifetime examined/reused %d/%d, row-major %d/%d", exA, reA, exB, reB)
			}
			if rounds < 2 || exA == 0 {
				t.Fatalf("only %d rounds with %d examined: the run exercised nothing", rounds, exA)
			}
			t.Logf("%d rounds, examined %d, reused %d", rounds, exA, reA)
		})
	}
}

// TestSelectBatchAnyRowsMatchesRowMajor drives SelectBatch and the
// row-major reference with the caller's freedoms a Run never uses: each
// round offers a random subset of the candidate rows (so a round can offer
// rows the last one did not), and an uncertain point is sometimes marked
// certain for one round and then uncertain again (so it can miss the round
// that offered a row). A point whose memo has not swept builds no group
// only when it scored the last round's rows and this round offers no new
// one; every round must match the reference's rows, entropies and examined
// count bit for bit, and the lifetime examined and reused counts too.
func TestSelectBatchAnyRowsMatchesRowMajor(t *testing.T) {
	for _, numLabels := range []int{2, 3} {
		seed := int64(2701 + numLabels)
		d := randDataset(t, 30, 3, numLabels, 2, 0.6, seed)
		valPts := randPoints(10, 2, seed+1)
		cfg := Config{Parallelism: 2}
		a := newHarness(t, d, valPts, 3, cfg)
		b := newHarness(t, d, valPts, 3, cfg)
		rng := rand.New(rand.NewSource(seed + 2))
		newRows, rejoined := 0, 0
		var last []int
		for round := 0; round <= 2*d.N() && !a.allCertain(); round++ {
			rows := a.candidateRows()
			if len(rows) == 0 {
				break
			}
			if rng.Intn(2) == 0 {
				rows = slices.DeleteFunc(rows, func(int) bool { return rng.Intn(2) == 0 })
				if len(rows) == 0 {
					continue
				}
			}
			for _, row := range rows {
				if !slices.Contains(last, row) {
					newRows++
					break
				}
			}
			last = rows
			hidden := -1
			if v := rng.Intn(len(valPts)); !a.certain[v] && rng.Intn(3) == 0 {
				hidden = v
				a.certain[v], b.certain[v] = true, true
			}
			rowsA, hA, exA := a.sel.SelectBatch(rows, 2)
			rowsB, hB, exB := rowMajorSelectBatch(b.sel, rows, 2)
			if hidden >= 0 {
				a.certain[hidden], b.certain[hidden] = false, false
				rejoined++
			}
			if !slices.Equal(rowsA, rowsB) || exA != exB {
				t.Fatalf("labels %d round %d: point-major %v (examined %d), row-major %v (examined %d)",
					numLabels, round, rowsA, exA, rowsB, exB)
			}
			for i := range hA {
				if math.Float64bits(hA[i]) != math.Float64bits(hB[i]) {
					t.Fatalf("labels %d round %d: row %d entropy %v, row-major %v", numLabels, round, rowsA[i], hA[i], hB[i])
				}
			}
			if rng.Intn(2) == 0 {
				continue // pin nothing: the next round sees the same memos
			}
			cand := rng.Intn(d.Examples[rowsA[0]].M())
			a.sel.Pin(rowsA[0], cand)
			b.sel.Pin(rowsB[0], cand)
			a.refreshCertainty(t)
			b.refreshCertainty(t)
		}
		exA, reA := a.sel.Stats()
		exB, reB := b.sel.Stats()
		if exA != exB || reA != reB {
			t.Fatalf("labels %d: lifetime examined/reused %d/%d, row-major %d/%d", numLabels, exA, reA, exB, reB)
		}
		if newRows < 2 || rejoined < 2 || reA == 0 {
			t.Fatalf("labels %d: %d rounds offered new rows, %d points rejoined, %d reused: the run exercised too little",
				numLabels, newRows, rejoined, reA)
		}
		t.Logf("labels %d: examined %d, reused %d, %d rounds with new rows, %d rejoins", numLabels, exA, reA, newRows, rejoined)
	}
}
