package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knn"
)

// cleanFixture builds a server + dataset + clean session whose run takes
// several steps, plus a valid truth oracle.
func cleanFixture(t *testing.T, cfg Config, seed int64) (*Server, *dataset.Incomplete, *Session) {
	t.Helper()
	d := randDataset(t, 36, 3, 2, 2, 0.7, seed)
	s := NewServer(cfg)
	if _, err := s.Register("d", d, nil, 3); err != nil {
		t.Fatal(err)
	}
	truth := make([]int, d.N())
	for i := range truth {
		truth[i] = (i * 7) % d.Examples[i].M()
	}
	sess, err := s.StartCleanSession("d", CleanRequest{
		Truth:     truth,
		ValPoints: randPoints(6, 2, seed+1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, d, sess
}

// referencePinned answers one point with a fresh engine carrying the given
// pins — the ground truth a session query must match bit for bit.
func referencePinned(d *dataset.Incomplete, steps []CleanStep, pt []float64, k int) []float64 {
	e := core.NewEngine(d, knn.NegEuclidean{}, pt)
	for _, st := range steps {
		e.SetPin(st.Row, st.Candidate)
	}
	sc := e.MustScratch(k)
	return append([]float64(nil), e.Counts(sc, -1, -1)...)
}

// TestSessionQueryLockstep steps a clean session while repeatedly batch-
// querying it, asserting every answer equals a fresh pinned-engine sweep bit
// for bit, and that the repeats actually reuse retained tree state.
func TestSessionQueryLockstep(t *testing.T) {
	s, d, sess := cleanFixture(t, Config{Parallelism: 2}, 950)
	defer s.Close()
	points := randPoints(5, 2, 951)
	var executed []CleanStep
	for round := 0; round < 8; round++ {
		res, err := sess.Query(context.Background(), BatchRequest{Points: points})
		if err != nil {
			t.Fatal(err)
		}
		// Query again at the same pin state: must be pure memo hits.
		res2, err := sess.Query(context.Background(), BatchRequest{Points: points})
		if err != nil {
			t.Fatal(err)
		}
		for i := range points {
			want := referencePinned(d, executed, points[i], 3)
			for y, v := range want {
				if res.Results[i].Fractions[y] != v {
					t.Fatalf("round %d point %d label %d: session query %v, fresh pinned sweep %v",
						round, i, y, res.Results[i].Fractions[y], v)
				}
				if res2.Results[i].Fractions[y] != v {
					t.Fatalf("round %d point %d: repeat query diverged from memo", round, i)
				}
			}
		}
		steps, done, err := sess.Next(1)
		if err != nil {
			t.Fatal(err)
		}
		executed = append(executed, steps...)
		if done {
			break
		}
	}
	qs := sess.QueryStats()
	if qs.Queries == 0 || qs.Retained.MemoHits == 0 {
		t.Fatalf("query memo never hit: %+v", qs)
	}
	if qs.Retained.CandidatesAvoided == 0 {
		t.Fatalf("no candidate scans avoided across repeated queries under pins: %+v", qs)
	}
	if st := sess.Status(); st.QueryMemo == nil || st.QueryMemo.Queries != qs.Queries {
		t.Fatalf("status does not surface query memo stats: %+v", st.QueryMemo)
	}
}

// TestSessionQueryForksPooledEngines checks a session query builds its
// per-point engines through the dataset's engine pool (as forks, so the
// session's pins stay private): a dataset batch of the same points afterwards
// builds nothing and hits the pool once per point, and its unpinned answers
// equal a fresh server's bit for bit.
func TestSessionQueryForksPooledEngines(t *testing.T) {
	s, d, sess := cleanFixture(t, Config{Parallelism: 2}, 970)
	defer s.Close()
	ctx := context.Background()
	points := randPoints(5, 2, 971)
	if _, _, err := sess.Next(2); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(ctx, BatchRequest{Points: points}); err != nil {
		t.Fatal(err)
	}
	ds, err := s.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	before := ds.Stats()[0]
	got, err := s.BatchQuery(ctx, "d", BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	after := ds.Stats()[0]
	if builds := after.EngineBuilds - before.EngineBuilds; builds != 0 {
		t.Fatalf("dataset batch after a session query built %d engines, want 0 (%+v)", builds, after)
	}
	if hits := after.EngineHits - before.EngineHits; hits != int64(len(points)) {
		t.Fatalf("dataset batch after a session query hit %d pooled engines, want %d", hits, len(points))
	}

	fresh := NewServer(Config{Parallelism: 2})
	defer fresh.Close()
	if _, err := fresh.Register("d", d, nil, 3); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.BatchQuery(ctx, "d", BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Results {
		g := got.Results[i]
		if g.Prediction != w.Prediction || g.Certain != w.Certain || g.Entropy != w.Entropy {
			t.Fatalf("point %d: %+v, fresh server %+v", i, g, w)
		}
		for y := range w.Fractions {
			if g.Fractions[y] != w.Fractions[y] {
				t.Fatalf("point %d label %d: %v, fresh server %v", i, y, g.Fractions[y], w.Fractions[y])
			}
		}
	}
}

// TestSessionQueryMatchesAblation cross-checks the memoized path against the
// DisableQueryMemo full-sweep baseline on an identical run, and checks the
// baseline pays more candidate scans — the quantity the benchmark reports.
func TestSessionQueryMatchesAblation(t *testing.T) {
	run := func(cfg Config) (answers [][]float64, stats SessionQueryStats) {
		s, _, sess := cleanFixture(t, cfg, 960)
		defer s.Close()
		points := randPoints(4, 2, 961)
		for {
			res, err := sess.Query(context.Background(), BatchRequest{Points: points})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Results {
				answers = append(answers, r.Fractions)
			}
			_, done, err := sess.Next(1)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		return answers, sess.QueryStats()
	}
	memoAns, memoStats := run(Config{Parallelism: 2})
	fullAns, fullStats := run(Config{Parallelism: 2, DisableQueryMemo: true})
	if len(memoAns) != len(fullAns) {
		t.Fatalf("run lengths diverged: %d vs %d", len(memoAns), len(fullAns))
	}
	for i := range memoAns {
		for y := range memoAns[i] {
			if memoAns[i][y] != fullAns[i][y] {
				t.Fatalf("answer %d label %d: memo %v full %v", i, y, memoAns[i][y], fullAns[i][y])
			}
		}
	}
	if memoStats.Retained.CandidatesScanned >= fullStats.Retained.CandidatesScanned {
		t.Fatalf("memo path scanned %d candidates, full-sweep baseline %d — no work saved",
			memoStats.Retained.CandidatesScanned, fullStats.Retained.CandidatesScanned)
	}
}

// TestSessionQueryRaceHammer runs a clean session's driver concurrently with
// repeated session queries and dataset-level batch queries on the same
// dataset — the -race workload for the shared pools, the append-only history
// snapshotting, and the per-entry retained memos. The final answers must
// equal a fresh sweep under the full pin set.
func TestSessionQueryRaceHammer(t *testing.T) {
	s, d, sess := cleanFixture(t, Config{Parallelism: 4}, 970)
	defer s.Close()
	points := randPoints(4, 2, 971)
	done := make(chan struct{})
	var driveErr error
	go func() {
		defer close(done)
		for {
			_, finished, err := sess.Next(2)
			if err != nil {
				driveErr = err
				return
			}
			if finished {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := sess.Query(context.Background(), BatchRequest{Points: points}); err != nil {
					t.Errorf("goroutine %d: session query: %v", g, err)
					return
				}
				if _, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points}); err != nil {
					t.Errorf("goroutine %d: batch query: %v", g, err)
					return
				}
			}
		}(g)
	}
	<-done
	wg.Wait()
	if driveErr != nil {
		t.Fatal(driveErr)
	}
	// Final check: the queried state equals a fresh sweep under every
	// executed pin.
	var executed []CleanStep
	if _, err := sess.DriveFrom(0, func(st CleanStep) bool {
		executed = append(executed, st)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(context.Background(), BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		want := referencePinned(d, executed, points[i], 3)
		for y, v := range want {
			if res.Results[i].Fractions[y] != v {
				t.Fatalf("post-hammer point %d label %d: %v want %v", i, y, res.Results[i].Fractions[y], v)
			}
		}
	}
}

// TestSessionQueryCacheBounded sweeps many distinct points through a
// session query cache under tiny entry and byte budgets and checks the
// cache never grows past them — the guard against a point sweep pinning
// unbounded engines to one session.
func TestSessionQueryCacheBounded(t *testing.T) {
	run := func(cfg Config, wantMaxEntries int) {
		s, _, sess := cleanFixture(t, cfg, 985)
		defer s.Close()
		if _, _, err := sess.Next(1); err != nil {
			t.Fatal(err)
		}
		sweep := randPoints(30, 2, 986)
		for _, p := range sweep {
			res, err := sess.Query(context.Background(), BatchRequest{Points: [][]float64{p}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Results) != 1 {
				t.Fatal("missing result")
			}
		}
		sess.mu.Lock()
		q := sess.queries
		sess.mu.Unlock()
		q.mu.Lock()
		entries, bytes := q.cache.len(), q.cache.bytes
		maxBytes := q.cache.maxBytes
		q.mu.Unlock()
		if entries > wantMaxEntries {
			t.Fatalf("cache kept %d entries, budget %d (cfg %+v)", entries, wantMaxEntries, cfg)
		}
		if maxBytes > 0 && entries > 1 && bytes > maxBytes {
			t.Fatalf("cache bytes %d above budget %d with %d entries", bytes, maxBytes, entries)
		}
	}
	run(Config{EngineCacheSize: 4}, 4)
	// Caching "disabled" still bounds the session cache (single entry).
	run(Config{EngineCacheSize: -1}, 1)
	// A byte budget far below the 30-point sweep's total footprint must
	// evict: the cache may keep however many entries fit, but not all.
	run(Config{MaxEngineBytes: 100_000}, 29)
}

// TestSessionQueryAfterRelease checks a released session refuses queries
// with the gone/not-found contract instead of resurrecting engines.
func TestSessionQueryAfterRelease(t *testing.T) {
	s, _, sess := cleanFixture(t, Config{}, 980)
	defer s.Close()
	if _, err := sess.Query(context.Background(), BatchRequest{Points: randPoints(2, 2, 981)}); err != nil {
		t.Fatal(err)
	}
	if err := s.ReleaseCleanSession(sess.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(context.Background(), BatchRequest{Points: randPoints(2, 2, 981)}); !errors.Is(err, ErrGone) {
		t.Fatalf("query after release returned %v, want ErrGone", err)
	}
}
