package serve

import (
	"context"
	"errors"
	"fmt"
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
	return referencePinnedMode(d, steps, pt, k, false)
}

// referencePinnedMode is referencePinned in either accumulator mode: tally
// enumeration (Engine.Counts) or the multi-class DP (Engine.CountsMC).
func referencePinnedMode(d *dataset.Incomplete, steps []CleanStep, pt []float64, k int, useMC bool) []float64 {
	e := core.NewEngine(d, knn.NegEuclidean{}, pt)
	for _, st := range steps {
		e.SetPin(st.Row, st.Candidate)
	}
	sc := e.MustScratch(k)
	if useMC {
		return append([]float64(nil), e.CountsMC(sc, -1, -1)...)
	}
	return append([]float64(nil), e.Counts(sc, -1, -1)...)
}

// TestSessionQueryBothModes alternates tally and MC batches over the same
// points on one session across several cleaning steps. Every answer must
// equal a fresh pinned engine's Counts / CountsMC bit for bit, each mode's
// repeat at one pin state must be a memo hit of that mode's own Retained,
// and with the result cache enabled session queries must leave its hits
// and misses unchanged: the per-point memo is a session answer's only cache.
func TestSessionQueryBothModes(t *testing.T) {
	s, d, sess := cleanFixture(t, Config{Parallelism: 2, ResultCacheBytes: 1 << 20}, 990)
	defer s.Close()
	ctx := context.Background()
	points := randPoints(4, 2, 991)
	// The result cache is live: a dataset batch misses once per point.
	if _, err := s.BatchQuery(ctx, "d", BatchRequest{Points: points}); err != nil {
		t.Fatal(err)
	}
	if rc := s.Stats().ResultCache; rc.Misses != int64(len(points)) {
		t.Fatalf("dataset batch: %+v, want %d misses", rc, len(points))
	}
	var executed []CleanStep
	for round := 0; round < 4; round++ {
		cacheBefore := *s.Stats().ResultCache
		memoBefore := sess.QueryStats()
		for _, useMC := range []bool{false, true, false, true} {
			res, err := sess.Query(ctx, BatchRequest{Points: points, UseMC: useMC})
			if err != nil {
				t.Fatal(err)
			}
			for i := range points {
				want := referencePinnedMode(d, executed, points[i], 3, useMC)
				for y, v := range want {
					if res.Results[i].Fractions[y] != v {
						t.Fatalf("round %d mc=%v point %d label %d: session query %v, fresh pinned sweep %v",
							round, useMC, i, y, res.Results[i].Fractions, want)
					}
				}
			}
		}
		if rc := s.Stats().ResultCache; rc.Hits != cacheBefore.Hits || rc.Misses != cacheBefore.Misses {
			t.Fatalf("round %d: session queries touched the result cache: %+v, before %+v", round, *rc, cacheBefore)
		}
		memo := sess.QueryStats()
		if got := memo.Queries - memoBefore.Queries; got != int64(4*len(points)) {
			t.Fatalf("round %d: %d points counted, want %d", round, got, 4*len(points))
		}
		// The second batch of each mode repeats a pin state its memo holds.
		if hits := memo.Retained.MemoHits - memoBefore.Retained.MemoHits; hits < int64(2*len(points)) {
			t.Fatalf("round %d: %d memo hits, want at least %d (one per repeated point and mode)", round, hits, 2*len(points))
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
	if len(executed) < 2 {
		t.Fatalf("session ran %d steps; too few to alternate modes across pin states", len(executed))
	}
}

// TestSessionQueryLockstep steps a clean session while repeatedly batch-
// querying it, asserting every answer equals a fresh pinned-engine sweep bit
// for bit, and that the repeats actually reuse retained tree state. Whole
// answers, Q1 included, equal a fresh server's first answer at the same
// pins, and a point whose memo did not sweep across a step (the step pinned
// only irrelevant rows) answers bit for bit as in the round before.
func TestSessionQueryLockstep(t *testing.T) {
	s, d, sess := cleanFixture(t, Config{Parallelism: 2}, 950)
	defer s.Close()
	points := randPoints(5, 2, 951)
	freshAnswers := func(steps int) []PointResult {
		t.Helper()
		fs, _, fsess := cleanFixture(t, Config{Parallelism: 2}, 950)
		defer fs.Close()
		if steps > 0 {
			if _, _, err := fsess.Next(steps); err != nil {
				t.Fatal(err)
			}
		}
		res, err := fsess.Query(context.Background(), BatchRequest{Points: points})
		if err != nil {
			t.Fatal(err)
		}
		return res.Results
	}
	var executed []CleanStep
	var last []PointResult
	lastScans := make([]int64, len(points))
	acrossPins := 0
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
		samePointResults(t, fmt.Sprintf("round %d repeat", round), res2.Results, res.Results)
		samePointResults(t, fmt.Sprintf("round %d vs fresh server", round), res.Results, freshAnswers(len(executed)))
		for i, pt := range points {
			scans := memoFullScans(sess, pt)
			if last != nil && scans == lastScans[i] {
				acrossPins++
				samePointResults(t, fmt.Sprintf("round %d point %d across an irrelevant pin", round, i),
					res.Results[i:i+1], last[i:i+1])
			}
			lastScans[i] = scans
		}
		last = res.Results
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
	if acrossPins == 0 {
		t.Fatal("no memo held across a step: the fixture pins no irrelevant row")
	}
}

// memoFullScans returns the full sweeps of the session's tally memo of pt
// at K = 3.
func memoFullScans(sess *Session, pt []float64) int64 {
	ent := sess.queries.entry(pt, pointKey(pt), 3, false)
	ent.mu.Lock()
	defer ent.mu.Unlock()
	return ent.retained.Stats().FullScans
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

// TestSessionQueryRefreshedByDriver checks the driver's refresh: steps
// taken within queryRefreshSteps of a point's last query pay its sweeps, so
// the next query is all memo hits and still equals a fresh pinned sweep bit
// for bit; a point whose last query is further back is left for its next
// query to catch up.
func TestSessionQueryRefreshedByDriver(t *testing.T) {
	s, d, sess := cleanFixture(t, Config{Parallelism: 2}, 955)
	defer s.Close()
	points := randPoints(5, 2, 956)
	var executed []CleanStep
	query := func(what string, wantSweeps bool) {
		t.Helper()
		before := sess.QueryStats()
		res, err := sess.Query(context.Background(), BatchRequest{Points: points})
		if err != nil {
			t.Fatal(err)
		}
		got := sess.QueryStats().Retained.Sub(before.Retained)
		if wantSweeps != (got.FullScans > 0) || got.MemoHits+got.FullScans != int64(len(points)) {
			t.Fatalf("%s: the query itself ran %d sweeps and %d memo hits", what, got.FullScans, got.MemoHits)
		}
		for i := range points {
			want := referencePinned(d, executed, points[i], 3)
			for y, v := range want {
				if res.Results[i].Fractions[y] != v {
					t.Fatalf("%s: point %d label %d: %v, fresh pinned sweep %v", what, i, y, res.Results[i].Fractions[y], v)
				}
			}
		}
	}
	// step runs n steps and returns the sweeps the driver paid meanwhile.
	step := func(n int) int64 {
		t.Helper()
		before := sess.QueryStats().Retained.FullScans
		steps, _, err := sess.Next(n)
		if err != nil {
			t.Fatal(err)
		}
		executed = append(executed, steps...)
		return sess.QueryStats().Retained.FullScans - before
	}
	query("first query", true)
	if step(6) == 0 {
		t.Fatal("six steps after a query swept no queried point: the fixture pins no relevant row")
	}
	query("query after refreshed steps", false)

	// Pretend every point was last queried queryRefreshSteps+1 steps ago.
	q := sess.queries
	q.mu.Lock()
	ents := q.cache.appendValues(nil)
	q.mu.Unlock()
	for _, ent := range ents {
		ent.mu.Lock()
		ent.queried -= queryRefreshSteps + 1
		ent.mu.Unlock()
	}
	if n := step(6); n != 0 {
		t.Fatalf("the driver swept %d points not queried for over %d steps", n, queryRefreshSteps)
	}
	query("query after unrefreshed steps", true)
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
	// A byte budget about half the 30-point sweep's total footprint
	// (≈49 KB of forks and memos) must evict: the cache may keep however
	// many entries fit, but not all.
	run(Config{MaxEngineBytes: 25_000}, 29)
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
