package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
)

// Fixed offered loads, kept across commits so latency is compared at equal
// load. batch-cold's open loop runs at about half of what cpserve sustained
// on the reference box (2 cores) when the benchmark was written; batch-hot's
// is far below half, at what a single-process generator holds on time there.
// clean-live's matches the measured step rate (20.4 steps/s), about one
// session query per step: each query then mostly sees a new pin generation
// and takes the retained delta path, where a faster rate would add only
// result-cache hits at unchanged pins (README.md).
const (
	coldRate = 24.0  // batch-cold: 8-point batches per second (192 points/s)
	hotRate  = 400.0 // batch-hot: 8-point batches per second
	liveRate = 20.0  // clean-live: 16-point session queries per second

	hotDistinct = 4096 // batch-hot working set: 16× the default 256-entry engine LRU
	coldPrefill = 512  // batch-cold set-up: distinct points that fill the engine LRU
	hotZipfS    = 1.1
	hotBodies   = 8192 // pre-encoded batch-hot bodies, cycled
	warmBatch   = 64   // points per warm-up request

	setupReps = 5 // whole set-ups per run (start → ready → registered → cache fill or session)
	rounds    = 5 // batch-*: closed-loop segments per run
)

// measurement is what one untraced run of a workload observed.
type measurement struct {
	setup []float64 // seconds per set-up repetition
	open  openLoopResult
	// closed holds the closed-loop request latencies of each round (batch-*)
	// or session (clean-live).
	closed [][]time.Duration
	// rates is the closed-loop work rate (points or steps per second) of
	// each round (batch-*) or session (clean-live).
	rates     []float64
	cleanRuns []float64 // clean-live: seconds from first /next to done, per session
	steps     int
	examined  int64
	// sessionQueries sums the query-memo counters of clean-live's sessions.
	sessionQueries serve.SessionQueryStats
	before         serve.ServerStats
	after          serve.ServerStats
	rssMB          float64
	t              tally
	traced         *tracedRun // --trace 1 only
}

// phaseSplit divides a run into its open-loop and closed-loop parts: a
// third open loop, two thirds closed loop. The open-loop median is steady
// on fewer samples than the closed-loop figures, whose spread over runs is
// the larger (README.md).
func phaseSplit(seconds int) (open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	open = total / 3
	return open, total - open
}

// setUp starts cpserve setupReps times — each start waits for ready,
// registers the dataset and runs extra (the cache fill on batch-*, session
// creation on clean-live) — keeps the last instance and stops the others.
// Each repetition is timed whole, extra included.
func setUp(cfg runConfig, in *inputs, m *measurement, extra func(*cpserve) error) (*cpserve, error) {
	var srv *cpserve
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startCpserve(cfg.cpserve, cfg.work); err != nil {
			return nil, err
		}
		if _, err := srv.c.do(context.Background(), "POST", "/v1/datasets", in.register); err != nil {
			srv.stop()
			return nil, fmt.Errorf("registering dataset: %w", err)
		}
		if extra != nil {
			if err := extra(srv); err != nil {
				srv.stop()
				return nil, err
			}
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}
	return srv, nil
}

// finish records the post-phase counters and peak RSS.
func (m *measurement) finish(srv *cpserve) error {
	var err error
	if m.after, err = srv.stats(); err != nil {
		return fmt.Errorf("reading /v1/stats: %w", err)
	}
	m.rssMB, err = srv.peakRSSMB()
	return err
}

const queryPath = "/v1/datasets/" + datasetName + "/query"

// batchWork is one batch workload's pre-encoded traffic.
type batchWork struct {
	rate   float64 // open-loop batches per second
	openN  int     // open-loop requests
	limit  int     // requests available in total (open then closed loop)
	bodies [][]byte
	pts    [][][]float64 // the points of each body
	warm   [][]float64   // points answered during set-up
	ref    refAnswers
}

// at maps request i to its body; bodies are cycled when limit exceeds them.
func (w *batchWork) at(i int) int { return i % len(w.bodies) }

// coldWork: 8-point batches over distinct test points, in order; no point
// is ever sent twice. Set-up fills the engine LRU with coldPrefill other
// points first, so the timed phase starts in the steady state of a server
// under cold traffic: the LRU's first fill (heap growth, page faults, GC)
// happens once per server, not per request.
func coldWork(cfg runConfig, in *inputs) (*batchWork, error) {
	openDur, _ := phaseSplit(cfg.seconds)
	traffic := in.tests[:len(in.tests)-coldPrefill]
	nb := len(traffic) / batchPoints
	w := &batchWork{rate: coldRate, openN: int(coldRate * openDur.Seconds()), limit: nb,
		bodies: make([][]byte, nb), pts: make([][][]float64, nb), warm: in.tests[len(traffic):]}
	if w.openN >= nb {
		return nil, fmt.Errorf("a %d s run would send more than the %d distinct test points", cfg.seconds, len(traffic))
	}
	for i := range w.pts {
		w.pts[i] = traffic[i*batchPoints : (i+1)*batchPoints]
		var err error
		if w.bodies[i], err = queryBody(w.pts[i]); err != nil {
			return nil, err
		}
	}
	// Correctness sample: every 8th open-loop batch (always sent).
	var sample [][]float64
	for i := 0; i < w.openN; i += 8 {
		sample = append(sample, w.pts[i]...)
	}
	var err error
	w.ref, err = referenceAnswers(in, sample)
	return w, err
}

// hotWork: batchPoints Zipf(hotZipfS) draws per body over a working set of
// hotDistinct test points, with the rank → point mapping shuffled by the
// seed; the whole working set is warmed during set-up.
func hotWork(cfg runConfig, in *inputs) (*batchWork, error) {
	if len(in.tests) < hotDistinct {
		return nil, fmt.Errorf("only %d distinct test points, batch-hot needs %d", len(in.tests), hotDistinct)
	}
	openDur, _ := phaseSplit(cfg.seconds)
	w := &batchWork{rate: hotRate, openN: int(hotRate * openDur.Seconds()), limit: 1 << 30, warm: in.tests[:hotDistinct]}
	var err error
	if w.pts, w.bodies, err = hotTraffic(cfg.seed, w.warm); err != nil {
		return nil, err
	}
	// Correctness sample: every 16th point of the working set.
	var sample [][]float64
	for i := 0; i < hotDistinct; i += 16 {
		sample = append(sample, w.warm[i])
	}
	w.ref, err = referenceAnswers(in, sample)
	return w, err
}

// hotTraffic draws hotBodies batches of batchPoints Zipf(hotZipfS) ranks over
// the working set and maps ranks to points through a seeded shuffle, so
// which points are popular changes with the seed.
func hotTraffic(seed int64, set [][]float64) (pts [][][]float64, bodies [][]byte, err error) {
	perm := rand.New(rand.NewSource(seed + 2)).Perm(len(set))
	ranks := zipfRanks(seed+1, hotZipfS, len(set), hotBodies*batchPoints)
	pts = make([][][]float64, hotBodies)
	bodies = make([][]byte, hotBodies)
	for i := range pts {
		pts[i] = make([][]float64, batchPoints)
		for j := range pts[i] {
			pts[i][j] = set[perm[ranks[i*batchPoints+j]]]
		}
		if bodies[i], err = queryBody(pts[i]); err != nil {
			return nil, nil, err
		}
	}
	return pts, bodies, nil
}

// warmUp answers every point of pts once, on maxConns connections.
func warmUp(c *client, pts [][]float64) error {
	var bodies [][]byte
	for i := 0; i < len(pts); i += warmBatch {
		b, err := queryBody(pts[i:min(i+warmBatch, len(pts))])
		if err != nil {
			return err
		}
		bodies = append(bodies, b)
	}
	var t tally
	next := counter(len(bodies))
	var wg sync.WaitGroup
	for range maxConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := next(); ok; i, ok = next() {
				_, err := c.do(context.Background(), "POST", queryPath, bodies[i])
				t.record(err)
			}
		}()
	}
	wg.Wait()
	if err := t.firstErr(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func runBatchCold(cfg runConfig, in *inputs) (*measurement, error) {
	w, err := coldWork(cfg, in)
	if err != nil {
		return nil, err
	}
	return runBatch(cfg, in, w)
}

func runBatchHot(cfg runConfig, in *inputs) (*measurement, error) {
	w, err := hotWork(cfg, in)
	if err != nil {
		return nil, err
	}
	return runBatch(cfg, in, w)
}

// runBatch: set-up (plus warm-up), then the open loop at w.rate over the
// first w.openN bodies, then the closed loop on maxConns connections over
// the bodies after them, in rounds whose median rate is reported.
func runBatch(cfg runConfig, in *inputs, w *batchWork) (*measurement, error) {
	_, closedDur := phaseSplit(cfg.seconds)
	m := &measurement{}
	srv, err := setUp(cfg, in, m, func(s *cpserve) error { return warmUp(s.c, w.warm) })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	// Collect loadbench's own set-up garbage (generated data, reference
	// engines) now rather than during the timed phase.
	runtime.GC()
	if m.before, err = srv.stats(); err != nil {
		return nil, err
	}
	send := func(i int) time.Time {
		body, err := srv.c.do(context.Background(), "POST", queryPath, w.bodies[w.at(i)])
		done := time.Now()
		if err == nil {
			err = checkBatch(body, w.pts[w.at(i)], w.ref)
		}
		m.t.record(err)
		return done
	}
	next := counter(w.limit)
	for range w.openN {
		next()
	}
	m.open = openLoop(w.rate, w.openN, nil, send)
	for range rounds {
		lats, elapsed := closedLoop(maxConns, closedDur/rounds, next, send)
		if len(lats) == 0 {
			break
		}
		m.closed = append(m.closed, lats)
		m.rates = append(m.rates, float64(len(lats)*batchPoints)/elapsed.Seconds())
	}
	if len(m.rates) < rounds {
		// Only batch-cold's finite pool of distinct points can run out.
		fmt.Printf("WARNING: %s ran out of distinct test points; the closed loop reports %d of %d rounds\n", cfg.workload, len(m.rates), rounds)
	}
	if err := m.finish(srv); err != nil {
		return nil, err
	}
	srv.stop()
	if cfg.trace {
		if m.traced, err = tracedBatch(cfg, in, w, &m.t); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return m, nil
}

// stepResponse is the /v1/clean/{id}/next answer.
type stepResponse struct {
	Steps []serve.CleanStep `json:"steps"`
	Done  bool              `json:"done"`
}

// createSession posts the clean-session body and returns the session ID.
func createSession(c *client, in *inputs) (string, error) {
	body, err := c.do(context.Background(), "POST", "/v1/datasets/"+datasetName+"/clean", in.cleanBody)
	if err != nil {
		return "", fmt.Errorf("creating clean session: %w", err)
	}
	var st serve.SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// runCleanLive: sessions are stepped to completion back to back (closed
// loop, one connection) until the run's time is used up, while an open-loop
// client posts a fixed 16-point batch to the current session's query route.
func runCleanLive(cfg runConfig, in *inputs) (*measurement, error) {
	fixed := in.tests[:sessionBatch]
	qbody, err := queryBody(fixed)
	if err != nil {
		return nil, err
	}
	ref, err := referenceSession(in, fixed)
	if err != nil {
		return nil, fmt.Errorf("reference session: %w", err)
	}
	m := &measurement{}
	var first string
	srv, err := setUp(cfg, in, m, func(s *cpserve) (err error) {
		first, err = createSession(s.c, in)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	// Collect loadbench's own set-up garbage (generated data, reference
	// engines) now rather than during the timed phase.
	runtime.GC()
	if m.before, err = srv.stats(); err != nil {
		return nil, err
	}
	// A query holds mu (read) for the session it targets, so a finished
	// session is retired only once no query to it is in flight.
	var mu sync.RWMutex
	current := first
	stop := make(chan struct{})
	var queries openLoopResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		queries = openLoop(liveRate, 1<<30, stop, func(int) time.Time {
			mu.RLock()
			body, err := srv.c.do(context.Background(), "POST", "/v1/clean/"+current+"/query", qbody)
			done := time.Now()
			mu.RUnlock()
			if err == nil {
				err = checkBatch(body, fixed, nil)
			}
			m.t.record(err)
			return done
		})
	}()
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for id := first; id != ""; {
		err := m.driveSession(srv.c, id, ref, fixed, qbody)
		next := ""
		if err == nil && time.Now().Before(deadline) {
			next, err = createSession(srv.c, in)
		}
		if err != nil {
			m.t.record(err)
			next = ""
		}
		if next == "" {
			close(stop)
			wg.Wait()
		} else {
			mu.Lock()
			current = next
			mu.Unlock()
		}
		if err := m.retire(srv.c, id); err != nil {
			return nil, err
		}
		id = next
	}
	m.open = queries
	if err := m.finish(srv); err != nil {
		return nil, err
	}
	srv.stop()
	if cfg.trace {
		if m.traced, err = tracedClean(cfg, in, ref, fixed, qbody, &m.t); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return m, nil
}

// retire records a finished session's query-memo counters from its status
// and deletes it, so finished sessions do not pile up in cpserve's memory
// (a run holds 2 or 3 sessions depending on speed, which would make
// server_rss_mb depend on that count). /v1/stats session_queries sums live
// sessions only, so it cannot stand in for these.
func (m *measurement) retire(c *client, id string) error {
	body, err := c.do(context.Background(), "GET", "/v1/clean/"+id, nil)
	if err != nil {
		return err
	}
	var st serve.SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	if st.QueryMemo != nil {
		m.sessionQueries.Queries += st.QueryMemo.Queries
		m.sessionQueries.Retained.Add(st.QueryMemo.Retained)
	}
	_, err = c.do(context.Background(), "DELETE", "/v1/clean/"+id, nil)
	return err
}

// driveSession pulls /next?steps=1 until done, checking the step sequence
// against the reference, then checks the done session's answers to the
// fixed batch against the reference session's. Each successful request is
// tallied here; the first failure is returned for the caller to tally.
func (m *measurement) driveSession(c *client, id string, ref *cleanRef, fixed [][]float64, qbody []byte) error {
	start := time.Now()
	n := 0
	var lats []time.Duration
	defer func() { m.closed = append(m.closed, lats) }()
	for {
		t0 := time.Now()
		body, err := c.do(context.Background(), "POST", "/v1/clean/"+id+"/next?steps=1", nil)
		lats = append(lats, time.Since(t0))
		if err != nil {
			return err
		}
		var resp stepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decoding step response: %w", err)
		}
		for _, st := range resp.Steps {
			if n >= len(ref.steps) || st.Row != ref.steps[n].Row || st.Candidate != ref.steps[n].Candidate {
				return fmt.Errorf("session %s step %d cleaned (row %d, candidate %d); the reference session did not", id, n+1, st.Row, st.Candidate)
			}
			m.examined += st.ExaminedHypotheses
			n++
		}
		m.t.record(nil)
		if resp.Done {
			break
		}
	}
	run := time.Since(start).Seconds()
	m.cleanRuns = append(m.cleanRuns, run)
	m.rates = append(m.rates, float64(n)/run)
	m.steps += n
	if n != len(ref.steps) {
		return fmt.Errorf("session %s finished after %d steps, the reference after %d", id, n, len(ref.steps))
	}
	body, err := c.do(context.Background(), "POST", "/v1/clean/"+id+"/query", qbody)
	if err == nil {
		err = checkBatch(body, fixed, ref.final)
	}
	if err == nil {
		m.t.record(nil)
	}
	return err
}
