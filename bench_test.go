// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus microbenchmarks of the CP-query algorithms (Figure 4's complexity
// claims) and ablations of the design choices called out in DESIGN.md §6.
//
// The Benchmark{Table,Figure}* entries run the corresponding experiment at
// the tiny scale (full scales via cmd/cpbench -scale small|medium|paper).
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cleaning"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/knn"
	"repro/internal/segtree"
	"repro/internal/serve"
)

// --- Table and figure regenerators (tiny scale) -----------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(experiments.Tiny, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTable2(b *testing.B, name string) {
	spec, err := experiments.SpecByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2Dataset(spec, experiments.Tiny, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_BabyProduct(b *testing.B) { benchTable2(b, "BabyProduct") }
func BenchmarkTable2_Supreme(b *testing.B)     { benchTable2(b, "Supreme") }
func BenchmarkTable2_Bank(b *testing.B)        { benchTable2(b, "Bank") }
func BenchmarkTable2_Puma(b *testing.B)        { benchTable2(b, "Puma") }

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFigure4([]int{100, 200}, 1)
	}
}

func benchFigure9(b *testing.B, name string) {
	spec, err := experiments.SpecByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure9Dataset(spec, experiments.Tiny, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9_BabyProduct(b *testing.B) { benchFigure9(b, "BabyProduct") }
func BenchmarkFigure9_Supreme(b *testing.B)     { benchFigure9(b, "Supreme") }
func BenchmarkFigure9_Bank(b *testing.B)        { benchFigure9(b, "Bank") }
func BenchmarkFigure9_Puma(b *testing.B)        { benchFigure9(b, "Puma") }

func BenchmarkFigure10(b *testing.B) {
	spec, err := experiments.SpecByName("Supreme")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure10Dataset(spec, experiments.Tiny, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- CP-query microbenchmarks (Figure 4 rows) --------------------------------

// benchInstance builds a deterministic random instance.
func benchInstance(n, m, numLabels int) *core.Instance {
	rng := rand.New(rand.NewSource(42))
	sims := make([][]float64, n)
	labels := make([]int, n)
	for i := range sims {
		row := make([]float64, m)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		sims[i] = row
		labels[i] = rng.Intn(numLabels)
	}
	for l := 0; l < numLabels && l < n; l++ {
		labels[l] = l
	}
	return core.MustNewInstance(sims, labels, numLabels)
}

func BenchmarkQ2_SSFast_K1_N1000(b *testing.B) {
	inst := benchInstance(1000, 5, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SSFastCounts(inst)
	}
}

func benchSSDC(b *testing.B, n, m, k, labels int) {
	inst := benchInstance(n, m, labels)
	e := core.NewEngineFromInstance(inst)
	sc := e.MustScratch(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Counts(sc, -1, -1)
	}
}

func BenchmarkQ2_SSDC_K3_N250(b *testing.B)  { benchSSDC(b, 250, 5, 3, 2) }
func BenchmarkQ2_SSDC_K3_N1000(b *testing.B) { benchSSDC(b, 1000, 5, 3, 2) }
func BenchmarkQ2_SSDC_K3_N4000(b *testing.B) { benchSSDC(b, 4000, 5, 3, 2) }
func BenchmarkQ2_SSDC_K7_N1000(b *testing.B) { benchSSDC(b, 1000, 5, 7, 2) }

func benchSSDCMC(b *testing.B, n, m, k, labels int) {
	inst := benchInstance(n, m, labels)
	e := core.NewEngineFromInstance(inst)
	sc := e.MustScratch(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CountsMC(sc, -1, -1)
	}
}

func BenchmarkQ2_SSDCMC_K3_N1000_Y2(b *testing.B)  { benchSSDCMC(b, 1000, 5, 3, 2) }
func BenchmarkQ2_SSDCMC_K3_N1000_Y8(b *testing.B)  { benchSSDCMC(b, 1000, 5, 3, 8) }
func BenchmarkQ2_SSDCMC_K3_N1000_Y16(b *testing.B) { benchSSDCMC(b, 1000, 5, 3, 16) }

// Ablation: tally enumeration (SS-DC) blows up combinatorially in |Y| while
// the winner-cap DP (SS-DC-MC) stays polynomial.
func BenchmarkAblation_SSDC_TallyEnum_K3_Y8(b *testing.B) { benchSSDC(b, 1000, 5, 3, 8) }

func BenchmarkQ1_MM_N1000(b *testing.B) {
	inst := benchInstance(1000, 5, 2)
	e := core.NewEngineFromInstance(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.CheckMM(3, -1, -1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQ1_MM_N4000(b *testing.B) {
	inst := benchInstance(4000, 5, 2)
	e := core.NewEngineFromInstance(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.CheckMM(3, -1, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: naive exact SortScan (per-candidate DP recomputation, big-int
// arithmetic) vs the segment-tree scan above.
func BenchmarkAblation_SSExact_K3_N100(b *testing.B) {
	inst := benchInstance(100, 5, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SSExactCounts(inst, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: exact incremental big-int scan vs the float64 K=1 scan.
func BenchmarkAblation_SSFastExact_K1_N250(b *testing.B) {
	inst := benchInstance(250, 5, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SSFastExactCounts(inst)
	}
}

// --- Serving layer ------------------------------------------------------------

// benchServeData builds a deterministic incomplete dataset in feature space
// (benchInstance works on similarities; serving needs raw candidates).
func benchServeData(n, m, numLabels, dim int, seed int64) *dataset.Incomplete {
	rng := rand.New(rand.NewSource(seed))
	examples := make([]dataset.Example, n)
	for i := range examples {
		label := rng.Intn(numLabels)
		if i < numLabels {
			label = i
		}
		cands := make([][]float64, 1)
		base := make([]float64, dim)
		for d := range base {
			base[d] = float64(label) + rng.NormFloat64()
		}
		cands[0] = base
		if rng.Float64() < 0.4 {
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

func benchServePoints(n, dim int, seed int64) [][]float64 {
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

// benchServeBatch measures serve.BatchQuery throughput for one batch of
// `batch` points per iteration. hot repeats the same batch (engine-cache
// hits, one sweep per point); cold cycles through distinct batches (cache misses, so the win
// comes from Scratch pooling + worker parallelism alone).
func benchServeBatch(b *testing.B, batch int, hot bool) {
	d := benchServeData(500, 3, 2, 4, 42)
	s := serve.NewServer(serve.Config{})
	if _, err := s.Register("bench", d, knn.NegEuclidean{}, 3); err != nil {
		b.Fatal(err)
	}
	const distinct = 64
	batches := make([][][]float64, distinct)
	for i := range batches {
		batches[i] = benchServePoints(batch, 4, int64(100+i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := batches[0]
		if !hot {
			pts = batches[i%distinct]
		}
		if _, err := s.BatchQuery(context.Background(), "bench", serve.BatchRequest{Points: pts}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeBatch16_PooledHot(b *testing.B)  { benchServeBatch(b, 16, true) }
func BenchmarkServeBatch16_PooledCold(b *testing.B) { benchServeBatch(b, 16, false) }
func BenchmarkServeBatch64_PooledCold(b *testing.B) { benchServeBatch(b, 64, false) }

// Baseline: the pre-serving path — one engine + one Scratch constructed and
// thrown away per query, sequentially.
func benchServeNaive(b *testing.B, batch int) {
	d := benchServeData(500, 3, 2, 4, 42)
	points := benchServePoints(batch, 4, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range points {
			e := core.NewEngine(d, knn.NegEuclidean{}, t)
			sc := e.MustScratch(3)
			e.Counts(sc, -1, -1)
			if _, err := e.CheckMM(3, -1, -1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkServeBatch16_NaivePerQuery(b *testing.B) { benchServeNaive(b, 16) }
func BenchmarkServeBatch64_NaivePerQuery(b *testing.B) { benchServeNaive(b, 64) }

// Scratch construction vs pooled reuse — the allocation the ScratchPool
// amortizes (segment trees dominate: O(N·K) floats per label).
func BenchmarkScratch_Fresh_N1000(b *testing.B) {
	inst := benchInstance(1000, 5, 2)
	e := core.NewEngineFromInstance(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MustScratch(3)
	}
}

func BenchmarkScratch_Pooled_N1000(b *testing.B) {
	inst := benchInstance(1000, 5, 2)
	e := core.NewEngineFromInstance(inst)
	pool, err := core.NewScratchPool(e, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Put(pool.Get())
	}
}

// --- Incremental batch Q2 under pins (Figure-9-style clean-while-query) ------

// benchBatchQ2CleanWhileQuery interleaves cleaning steps of a session with a
// repeated batch Q2 of the same points against the session's evolving pin
// state — the serving pattern the session Q2 memo (core.Retained) targets.
// incremental answers through the per-point memos (memo hits for irrelevant
// pins, one full sweep after a relevant one); the baseline disables the
// memo so every query pays a full SS-DC sweep per point through the same
// code path, keeping the scans/op counters directly comparable.
func benchBatchQ2CleanWhileQuery(b *testing.B, incremental bool) {
	cfg := serve.Config{Parallelism: 2, DisableQueryMemo: !incremental}
	d := benchServeData(200, 3, 2, 4, 52)
	s := serve.NewServer(cfg)
	defer s.Close()
	if _, err := s.Register("bench", d, knn.NegEuclidean{}, 3); err != nil {
		b.Fatal(err)
	}
	truth := make([]int, d.N()) // candidate 0 is every row's oracle repair
	sess, err := s.StartCleanSession("bench", serve.CleanRequest{
		Truth:     truth,
		ValPoints: benchServePoints(4, 4, 61),
	})
	if err != nil {
		b.Fatal(err)
	}
	points := benchServePoints(16, 4, 62)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sess.Next(1); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Query(ctx, serve.BatchRequest{Points: points}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	qs := sess.QueryStats()
	b.ReportMetric(float64(qs.Retained.CandidatesScanned)/float64(b.N), "scans/op")
	b.ReportMetric(float64(qs.Retained.CandidatesAvoided)/float64(b.N), "scans-avoided/op")
}

func BenchmarkBatchQ2_Incremental(b *testing.B) { benchBatchQ2CleanWhileQuery(b, true) }
func BenchmarkBatchQ2_FullSweep(b *testing.B)   { benchBatchQ2CleanWhileQuery(b, false) }

// --- Clean-session hot path -------------------------------------------------

// BenchmarkCleanSession_Loadbench runs one CPClean session to completion
// through an in-process serve.Server on the data loadbench's clean-live
// workload registers: the Supreme generator's split for data seed 1 with
// 1000 training rows, 20% MNAR missing cells, at most 25 candidates per row,
// 40 validation points and K = 3 (the test pool is generated too, because
// it shapes the split). Each iteration creates the session, steps it with
// Next until done and releases it — the selection rounds (HypothesisCounts
// over every uncertain row and validation point), the pins and the
// certainty checks, without HTTP or the WAL. steps and hyp/run report the
// last session's cleaning steps and examined hypotheses; both are fixed by
// the data, so a change that moves them changed decisions, not speed.
// Built with -tags workcount it also reports convs/run, the last session's
// segment-tree node convolutions (segtree.Convolutions), probe-chain steps
// included: exact and deterministic, so one run per side compares work.
func BenchmarkCleanSession_Loadbench(b *testing.B) {
	spec, err := experiments.SpecByName("Supreme")
	if err != nil {
		b.Fatal(err)
	}
	scale := experiments.Scale{Name: "loadbench", TrainN: 1000, ValN: 40, TestN: 20000, MissingCellRate: 0.20}
	task, err := experiments.BuildTask(spec, scale, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	s := serve.NewServer(serve.Config{})
	defer s.Close()
	if _, err := s.Register("supreme", task.Dataset(), knn.NegEuclidean{}, task.K); err != nil {
		b.Fatal(err)
	}
	req := serve.CleanRequest{Truth: task.OracleWorld(), ValPoints: task.ValX}
	var st serve.SessionStatus
	var convs int64
	for b.Loop() {
		convs = segtree.Convolutions()
		sess, err := s.StartCleanSession("supreme", req)
		if err != nil {
			b.Fatal(err)
		}
		for done := false; !done; {
			if _, done, err = sess.Next(64); err != nil {
				b.Fatal(err)
			}
		}
		st = sess.Status()
		convs = segtree.Convolutions() - convs
		if err := s.ReleaseCleanSession(sess.ID()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Steps), "steps")
	b.ReportMetric(float64(st.ExaminedHypotheses), "hyp/run")
	if segtree.WorkCounting {
		b.ReportMetric(float64(convs), "convs/run")
	}
}

// --- Engine build at scale ----------------------------------------------------

// scaleTask returns the Supreme generator's task with n training rows, 20%
// MNAR cells and 200 test points (data seed 1).
func scaleTask(b *testing.B, n int) *cleaning.Task {
	spec, err := experiments.SpecByName("Supreme")
	if err != nil {
		b.Fatal(err)
	}
	scale := experiments.Scale{Name: "scale", TrainN: n, ValN: 20, TestN: 200, MissingCellRate: 0.20}
	t, err := experiments.BuildTask(spec, scale, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// BenchmarkEngineBuild_Scale measures one bound-first engine build
// (core.NewTruncatedEngine for K = 3 under neg-euclidean, the serving
// build) on the Supreme generator's data with 20% MNAR cells at N = 1k, 4k
// and 16k, cycling through 200 test points. Besides ns/op, B/op and
// allocs/op it reports, over the 200 points, the mean engine footprint
// (B/engine, Engine.ApproxBytes) and the mean share of rows the build
// evaluated the kernel for (evaluated%). Each size's data is generated
// before its timed loop (b.Loop runs the body once per -count). N16000's
// generation takes ≈11–15 s, so it is skipped under -short, which the
// one-iteration smoke pass (make bench) sets.
func BenchmarkEngineBuild_Scale(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			if n > 4000 && testing.Short() {
				b.Skip("N > 4000 generates its data for ≈15 s; run without -short")
			}
			task := scaleTask(b, n)
			d, points := task.Dataset(), task.TestX
			var bytes, evaluated float64
			for _, p := range points {
				e := core.NewTruncatedEngine(d, knn.NegEuclidean{}, p, 3)
				bytes += float64(e.ApproxBytes())
				for i := 0; i < e.N(); i++ {
					if e.Instance().Row(i) != nil {
						evaluated++
					}
				}
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				core.NewTruncatedEngine(d, knn.NegEuclidean{}, points[i%len(points)], 3)
				i++
			}
			b.ReportMetric(bytes/float64(len(points)), "B/engine")
			b.ReportMetric(100*evaluated/float64(len(points)*d.N()), "evaluated%")
		})
	}
}

// --- CPClean ablations --------------------------------------------------------

func benchCPClean(b *testing.B, opts cleaning.Options) {
	spec, err := experiments.SpecByName("Supreme")
	if err != nil {
		b.Fatal(err)
	}
	task, err := experiments.BuildTask(spec, experiments.Tiny, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var examined int64
	for i := 0; i < b.N; i++ {
		res, err := cleaning.CPClean(task, opts)
		if err != nil {
			b.Fatal(err)
		}
		examined = res.ExaminedHypotheses
	}
	// One full multi-round run's hypothesis Q2 scans — compare the default
	// (incremental selection memo) against the FullRescore ablation below to
	// see the round-over-round reuse.
	b.ReportMetric(float64(examined), "hyp-scans/run")
}

func BenchmarkCPClean_Supreme(b *testing.B) {
	benchCPClean(b, cleaning.DefaultOptions())
}

// Ablation: full per-round rescoring instead of the shared selection
// engine's cross-round hypothesis memo. Every uncleaned (row, validation
// point) pair is rescanned each round even when the previous pin provably
// left its entropy unchanged; the hyp-scans/run metric quantifies what the
// incremental selector saves on a Figure-9-style workload.
func BenchmarkAblation_CPClean_FullRescore(b *testing.B) {
	benchCPClean(b, cleaning.Options{DisableIncremental: true})
}

// Ablation: without the CP'ed-points-stay-CP'ed lemma (§4), every validation
// point is re-queried for every hypothesis.
func BenchmarkAblation_CPClean_NoSkipCertain(b *testing.B) {
	benchCPClean(b, cleaning.Options{DisableSkipCertain: true})
}

// Ablation: Q2 via the multi-class winner-cap DP instead of tally
// enumeration (identical answers for |Y|=2; different constants).
func BenchmarkAblation_CPClean_MC(b *testing.B) {
	benchCPClean(b, cleaning.Options{UseMC: true})
}

// Ablation: batch cleaning (top-3 rows per hypothesis sweep) vs the paper's
// one-row-per-sweep Algorithm 3.
func BenchmarkAblation_CPClean_Batch3(b *testing.B) {
	benchCPClean(b, cleaning.Options{BatchSize: 3})
}
