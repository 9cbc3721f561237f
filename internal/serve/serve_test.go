package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/selection"
)

// randDataset builds a deterministic random incomplete dataset: label-
// dependent cluster centers, uncertainFrac of rows with m jittered
// candidates.
func randDataset(t testing.TB, n, m, numLabels, dim int, uncertainFrac float64, seed int64) *dataset.Incomplete {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	examples := make([]dataset.Example, n)
	for i := range examples {
		label := rng.Intn(numLabels)
		if i < numLabels {
			label = i // every label present
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

// TestBatchQueryMatchesOneShot cross-checks every batch answer against the
// one-shot core.QueryDataset path, binary and multi-class.
func TestBatchQueryMatchesOneShot(t *testing.T) {
	for _, numLabels := range []int{2, 3} {
		t.Run(fmt.Sprintf("labels=%d", numLabels), func(t *testing.T) {
			d := randDataset(t, 40, 3, numLabels, 2, 0.4, 7)
			s := NewServer(Config{})
			if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
				t.Fatal(err)
			}
			points := randPoints(20, 2, 11)
			res, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Results) != len(points) {
				t.Fatalf("got %d results for %d points", len(res.Results), len(points))
			}
			for i, p := range points {
				q1, q2, err := core.QueryDataset(d, knn.NegEuclidean{}, p, 3)
				if err != nil {
					t.Fatal(err)
				}
				r := res.Results[i]
				for y := range q2 {
					if math.Abs(r.Fractions[y]-q2[y]) > 1e-9 {
						t.Fatalf("point %d label %d: batch %v vs one-shot %v", i, y, r.Fractions, q2)
					}
				}
				wantCertain := false
				for _, b := range q1 {
					wantCertain = wantCertain || b
				}
				if r.Certain != wantCertain {
					t.Fatalf("point %d: batch certain=%v, one-shot %v", i, r.Certain, wantCertain)
				}
				if r.Prediction != core.ArgmaxProb(q2) {
					t.Fatalf("point %d: batch prediction %d, one-shot %d", i, r.Prediction, core.ArgmaxProb(q2))
				}
			}
		})
	}
}

// TestBatchQueryMCMatchesSSDC checks the UseMC path agrees with tally
// enumeration.
func TestBatchQueryMCMatchesSSDC(t *testing.T) {
	d := randDataset(t, 30, 3, 3, 2, 0.5, 3)
	s := NewServer(Config{})
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	points := randPoints(10, 2, 5)
	plain, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points, UseMC: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		for y := range plain.Results[i].Fractions {
			if math.Abs(plain.Results[i].Fractions[y]-mc.Results[i].Fractions[y]) > 1e-9 {
				t.Fatalf("point %d: ss-dc %v vs mc %v", i, plain.Results[i].Fractions, mc.Results[i].Fractions)
			}
		}
	}
}

// TestConcurrentBatchesShareEngines hammers one dataset from many
// goroutines with overlapping points, so cached engines are concurrently
// shared while each worker holds its own pooled Scratch — the engine.go
// concurrency claim, meant to run under -race.
func TestConcurrentBatchesShareEngines(t *testing.T) {
	d := randDataset(t, 60, 3, 2, 2, 0.4, 13)
	s := NewServer(Config{Parallelism: 4})
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	points := randPoints(8, 2, 17) // few distinct points → guaranteed sharing
	want, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Poll stats while batches run: Stats must be safe against concurrent
	// lazy scratch-pool creation.
	stop := make(chan struct{})
	ds0, _ := s.Dataset("d")
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				ds0.Stats()
			}
		}
	}()
	defer close(stop)
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				res, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points})
				if err != nil {
					errs[g] = err
					return
				}
				for i := range points {
					for y, f := range res.Results[i].Fractions {
						if f != want.Results[i].Fractions[y] {
							errs[g] = fmt.Errorf("goroutine %d: point %d diverged", g, i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ds, _ := s.Dataset("d")
	stats := ds.Stats()
	if len(stats) != 1 {
		t.Fatalf("want 1 pool, got %d", len(stats))
	}
	if stats[0].EngineHits == 0 {
		t.Fatal("expected engine cache hits across repeated batches")
	}
	if stats[0].ScratchAllocs >= stats[0].ScratchGets {
		t.Fatalf("scratch pool never reused: %d allocs for %d gets", stats[0].ScratchAllocs, stats[0].ScratchGets)
	}
}

// TestEngineCacheEviction bounds the LRU.
func TestEngineCacheEviction(t *testing.T) {
	d := randDataset(t, 20, 2, 2, 2, 0.3, 19)
	s := NewServer(Config{EngineCacheSize: 2})
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: randPoints(9, 2, 23)}); err != nil {
		t.Fatal(err)
	}
	ds, _ := s.Dataset("d")
	if got := ds.Stats()[0].EnginesCached; got > 2 {
		t.Fatalf("LRU holds %d engines, capacity 2", got)
	}
}

// TestRegisterConflicts covers idempotent and conflicting registration.
func TestRegisterConflicts(t *testing.T) {
	d := randDataset(t, 20, 2, 2, 2, 0.3, 29)
	other := randDataset(t, 20, 2, 2, 2, 0.3, 31)
	s := NewServer(Config{})
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatalf("idempotent re-register failed: %v", err)
	}
	if _, err := s.Register("d", other, knn.NegEuclidean{}, 3); err == nil {
		t.Fatal("conflicting re-register succeeded")
	}
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 5); err == nil {
		t.Fatal("re-register with different K succeeded (fingerprint should differ)")
	}
	if Fingerprint(d, knn.RBF{Gamma: 0.5}, 3) == Fingerprint(d, knn.RBF{Gamma: 2}, 3) {
		t.Fatal("RBF gamma not part of the fingerprint")
	}
}

// refExpectedEntropy recomputes one hypothesis score the slow way: fresh
// per-candidate override queries, no pruning, no shared state.
func refExpectedEntropy(engines []*core.Engine, certain []bool, d *dataset.Incomplete, row, k int) float64 {
	m := d.Examples[row].M()
	total := 0.0
	for v, e := range engines {
		if certain[v] {
			continue
		}
		sc := e.MustScratch(k)
		for j := 0; j < m; j++ {
			total += core.Entropy(e.Counts(sc, row, j))
		}
	}
	return total / float64(m) / float64(len(certain))
}

// TestCleanSessionMatchesGreedyReference verifies every step cleans a row
// whose reference expected entropy is minimal, and that the session drives
// the validation set to full certainty while worlds shrink monotonically.
// The reference answers certainty with MM on binary labels and with
// threshold certainty over the Q2 counts on three.
func TestCleanSessionMatchesGreedyReference(t *testing.T) {
	for _, numLabels := range []int{2, 3} {
		t.Run(fmt.Sprintf("labels=%d", numLabels), func(t *testing.T) {
			d := randDataset(t, 24, 3, numLabels, 2, 0.5, 37)
			s := NewServer(Config{})
			if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
				t.Fatal(err)
			}
			valPts := randPoints(8, 2, 41)
			truth := make([]int, d.N())
			rng := rand.New(rand.NewSource(43))
			for i := range truth {
				truth[i] = rng.Intn(d.Examples[i].M())
			}
			sess, err := s.StartCleanSession("d", CleanRequest{Truth: truth, ValPoints: valPts})
			if err != nil {
				t.Fatal(err)
			}
			// Reference engines mirror the session's pins.
			refEngines := make([]*core.Engine, len(valPts))
			for v, p := range valPts {
				refEngines[v] = core.NewEngine(d, knn.NegEuclidean{}, p)
			}
			refCertain := make([]bool, len(valPts))
			refresh := func() {
				for v, e := range refEngines {
					if refCertain[v] {
						continue
					}
					if numLabels > 2 {
						refCertain[v] = core.IsCertain(e.Counts(e.MustScratch(3), -1, -1))
						continue
					}
					ok, err := e.IsCertainMM(3)
					if err != nil {
						t.Fatal(err)
					}
					refCertain[v] = ok
				}
			}
			refresh()
			prevWorlds := d.WorldCount()
			var run *selection.Run // the session's run after its latest step
			steps := 0
			for ; ; steps++ {
				if steps > d.N() {
					t.Fatal("session did not terminate")
				}
				next, _, err := sess.Next(1)
				if err != nil {
					t.Fatal(err)
				}
				if len(next) == 0 {
					break
				}
				step := next[0]
				sess.mu.Lock()
				run = sess.run
				sess.mu.Unlock()
				// The cleaned row must be a reference argmin (within float noise).
				cleanedScore := refExpectedEntropy(refEngines, refCertain, d, step.Row, 3)
				for row := 0; row < d.N(); row++ {
					if d.Examples[row].M() == 1 || refEngines[0].Pin(row) >= 0 || row == step.Row {
						continue
					}
					if score := refExpectedEntropy(refEngines, refCertain, d, row, 3); score < cleanedScore-1e-9 {
						t.Fatalf("step %d cleaned row %d (H=%.12f) but row %d scores %.12f",
							step.Step, step.Row, cleanedScore, row, score)
					}
				}
				if truth[step.Row] != step.Candidate {
					t.Fatalf("step %d pinned candidate %d, oracle says %d", step.Step, step.Candidate, truth[step.Row])
				}
				for _, e := range refEngines {
					e.SetPin(step.Row, step.Candidate)
				}
				refresh()
				certain := 0
				for _, c := range refCertain {
					if c {
						certain++
					}
				}
				if want := float64(certain) / float64(len(refCertain)); step.CertainFraction != want {
					t.Fatalf("step %d: certain fraction %v, reference %v", step.Step, step.CertainFraction, want)
				}
				worlds := run.WorldCount()
				if worlds.Cmp(prevWorlds) >= 0 {
					t.Fatalf("step %d: worlds %s did not shrink from %s", step.Step, worlds, prevWorlds)
				}
				prevWorlds = worlds
			}
			if steps < 2 {
				t.Fatalf("session ran %d steps; too few to compare with the reference", steps)
			}
			if !run.AllCertain() && len(run.Candidates()) > 0 {
				t.Fatalf("session stopped at certain fraction %.3f with rows left", run.CertainFraction())
			}
		})
	}
}

// TestCleanSessionMaxSteps respects the budget.
func TestCleanSessionMaxSteps(t *testing.T) {
	d := randDataset(t, 24, 3, 2, 2, 0.6, 47)
	s := NewServer(Config{})
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	steps := runSession(t, s, "d", CleanRequest{
		Truth:     make([]int, d.N()),
		ValPoints: randPoints(6, 2, 53),
		MaxSteps:  2,
	})
	if len(steps) > 2 {
		t.Fatalf("budget 2, cleaned %d rows", len(steps))
	}
}

// TestHTTPEndToEnd drives the JSON API: register, stats, batch query, and a
// streamed clean session.
func TestHTTPEndToEnd(t *testing.T) {
	d := randDataset(t, 24, 3, 2, 2, 0.5, 59)
	srv := httptest.NewServer(Handler(NewServer(Config{})))
	defer srv.Close()

	reg := map[string]interface{}{
		"name":       "web",
		"num_labels": 2,
		"examples":   exampleJSONs(d),
		"k":          3,
	}
	resp := postJSON(t, srv.URL+"/v1/datasets", reg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	var info datasetInfo
	decodeBody(t, resp, &info)
	if info.Rows != d.N() || info.Fingerprint == "" {
		t.Fatalf("bad register info: %+v", info)
	}

	points := randPoints(16, 2, 61)
	resp = postJSON(t, srv.URL+"/v1/datasets/web/query", map[string]interface{}{"points": points})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	var batch BatchResult
	decodeBody(t, resp, &batch)
	if len(batch.Results) != 16 {
		t.Fatalf("got %d results", len(batch.Results))
	}

	resp, err := http.Get(srv.URL + "/v1/datasets/web")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &info)
	if len(info.Pools) == 0 || info.Pools[0].EngineBuilds == 0 {
		t.Fatalf("stats missing pool counters: %+v", info)
	}
	if info.Worlds == "" || info.Worlds == "1" {
		t.Fatalf("stats worlds = %q for an uncertain dataset", info.Worlds)
	}

	truth := make([]int, d.N())
	resp = postJSON(t, srv.URL+"/v1/datasets/web/clean", map[string]interface{}{
		"truth":      truth,
		"val_points": randPoints(6, 2, 67),
		"max_steps":  3,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("clean status %d, want 201", resp.StatusCode)
	}
	var status SessionStatus
	decodeBody(t, resp, &status)
	if status.ID == "" || status.State != "pending" {
		t.Fatalf("bad session status: %+v", status)
	}

	resp, err = http.Get(srv.URL + "/v1/clean/" + status.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	var lines []map[string]interface{}
	for scanner.Scan() {
		var obj map[string]interface{}
		if err := json.Unmarshal(scanner.Bytes(), &obj); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		lines = append(lines, obj)
	}
	if len(lines) == 0 {
		t.Fatal("clean stream produced no lines")
	}
	last := lines[len(lines)-1]
	if last["done"] != true {
		t.Fatalf("final stream line not a summary: %v", last)
	}
	for _, obj := range lines[:len(lines)-1] {
		if _, hasRow := obj["row"]; !hasRow {
			t.Fatalf("step line missing row: %v", obj)
		}
	}

	// The finished session is still addressable until released.
	resp, err = http.Get(srv.URL + "/v1/clean/" + status.ID)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &status)
	if status.State != "done" || status.Steps != len(lines)-1 {
		t.Fatalf("post-stream status: %+v (stream had %d step lines)", status, len(lines)-1)
	}
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/clean/"+status.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/clean/" + status.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after delete %d, want 404", resp.StatusCode)
	}
}

// TestUnknownDatasetStatusCodes pins the HTTP error contract: unknown
// dataset → 404 on every per-dataset route, conflicting registration → 409,
// malformed input → 400.
func TestUnknownDatasetStatusCodes(t *testing.T) {
	d := randDataset(t, 20, 2, 2, 2, 0.3, 71)
	srv := httptest.NewServer(Handler(NewServer(Config{})))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/datasets", map[string]interface{}{
		"name": "d", "num_labels": 2, "examples": exampleJSONs(d), "k": 3,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d", resp.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/v1/datasets/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown dataset: status %d, want 404", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/v1/datasets/nope/query", map[string]interface{}{
		"points": [][]float64{{0, 0}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query unknown dataset: status %d, want 404", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/v1/datasets/nope/clean", map[string]interface{}{
		"truth": []int{0}, "val_points": [][]float64{{0, 0}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("clean unknown dataset: status %d, want 404", resp.StatusCode)
	}

	other := randDataset(t, 20, 2, 2, 2, 0.3, 73)
	resp = postJSON(t, srv.URL+"/v1/datasets", map[string]interface{}{
		"name": "d", "num_labels": 2, "examples": exampleJSONs(other), "k": 3,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting register: status %d, want 409", resp.StatusCode)
	}

	// Known dataset, bad payload (wrong dimension) stays a 400.
	resp = postJSON(t, srv.URL+"/v1/datasets/d/query", map[string]interface{}{
		"points": [][]float64{{0, 0, 0, 0, 0}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query payload: status %d, want 400", resp.StatusCode)
	}
}

// TestRegisterDefaultKClampedToN covers the k == 0 default on datasets with
// fewer than 3 rows: the default clamps to N instead of erroring.
func TestRegisterDefaultKClampedToN(t *testing.T) {
	d := dataset.MustNew([]dataset.Example{
		{Candidates: [][]float64{{0}, {1}}, Label: 0},
		{Candidates: [][]float64{{2}}, Label: 1},
	}, 2)
	s := NewServer(Config{})
	ds, err := s.Register("tiny", d, nil, 0)
	if err != nil {
		t.Fatalf("register with default K on N=2 dataset: %v", err)
	}
	if ds.K() != 2 {
		t.Fatalf("default K = %d, want clamp to N = 2", ds.K())
	}
	if _, err := s.BatchQuery(context.Background(), "tiny", BatchRequest{Points: [][]float64{{0.5}}}); err != nil {
		t.Fatalf("query under clamped default K: %v", err)
	}
	// An explicit out-of-range K must still be rejected.
	if _, err := s.Register("tiny5", d, nil, 5); err == nil {
		t.Fatal("explicit K=5 on N=2 dataset accepted")
	}
	// Larger datasets keep the documented default of 3.
	big := randDataset(t, 10, 2, 2, 2, 0.3, 83)
	ds, err = s.Register("big", big, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.K() != 3 {
		t.Fatalf("default K = %d on N=10 dataset, want 3", ds.K())
	}
}

// blockingWriter is a ResponseWriter that signals its first body write and
// then blocks until released — it freezes the NDJSON stream right after the
// first step so the test can cancel the request at a known point.
type blockingWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	first   chan struct{}
	once    sync.Once
	release chan struct{}
}

func (w *blockingWriter) Header() http.Header { return http.Header{} }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.first) })
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}
func (w *blockingWriter) contents() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestCleanStreamStopsOnClientCancel checks the NDJSON handler detaches
// from the session between steps once the request context is canceled
// instead of streaming to completion for a client that is gone — and that
// the session itself survives the disconnect for later resume.
func TestCleanStreamStopsOnClientCancel(t *testing.T) {
	d := randDataset(t, 40, 3, 2, 2, 0.8, 89)
	s := NewServer(Config{})
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	valPts := randPoints(8, 2, 91)
	truth := make([]int, d.N())
	// Control: the same session run to completion takes several steps, so an
	// uncanceled stream would emit several lines.
	order := runSession(t, s, "d", CleanRequest{Truth: truth, ValPoints: valPts})
	if len(order) < 2 {
		t.Fatalf("workload finishes in %d steps; too short to observe cancellation", len(order))
	}

	sess, err := s.StartCleanSession("d", CleanRequest{Truth: truth, ValPoints: valPts})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("GET", "/v1/clean/"+sess.ID()+"/stream", nil).WithContext(ctx)
	w := &blockingWriter{first: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		Handler(s).ServeHTTP(w, req)
		close(done)
	}()
	select {
	case <-w.first:
	case <-time.After(30 * time.Second):
		t.Fatal("stream never produced a first step")
	}
	// The handler is blocked inside the first step's Write. Cancel the
	// request, then let the write finish: the next loop iteration must
	// detach.
	cancel()
	close(w.release)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handler kept running after client cancel")
	}
	out := w.contents()
	lines := strings.Count(out, "\n")
	if lines >= len(order) {
		t.Fatalf("canceled stream wrote %d lines; full run is only %d steps", lines, len(order))
	}
	if strings.Contains(out, `"done"`) {
		t.Fatalf("canceled stream still wrote the summary line: %q", out)
	}
	// The disconnect must not have killed the run: the session is still
	// addressable and steps onward from where the stream left off.
	resumed, err := s.FindCleanSession(sess.ID())
	if err != nil {
		t.Fatalf("session gone after client disconnect: %v", err)
	}
	executed := resumed.Status().Steps
	steps, _, err := resumed.Next(1)
	if err != nil {
		t.Fatalf("resume after disconnect: %v", err)
	}
	if len(steps) != 1 || steps[0].Step != executed+1 {
		t.Fatalf("resume produced %v after %d executed steps", steps, executed)
	}
}

// TestCleanSessionReportsExaminedHypotheses checks the serving API exposes
// the selection engine's scan counts: per-step counters sum to the session
// total, scans happen, and the stream's summary carries the total.
func TestCleanSessionReportsExaminedHypotheses(t *testing.T) {
	d := randDataset(t, 30, 3, 2, 2, 0.6, 97)
	s := NewServer(Config{})
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	truth := make([]int, d.N())
	sess, err := s.StartCleanSession("d", CleanRequest{Truth: truth, ValPoints: randPoints(8, 2, 101)})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	steps := 0
	if _, err := sess.DriveFrom(0, func(step CleanStep) bool {
		if step.ExaminedHypotheses < 0 {
			t.Fatalf("step %d: negative examined_hypotheses %d", step.Step, step.ExaminedHypotheses)
		}
		total += step.ExaminedHypotheses
		steps++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Fatal("session executed no steps")
	}
	if total == 0 {
		t.Fatal("no hypothesis scans recorded across the whole session")
	}
	if got := sess.Status().ExaminedHypotheses; got != total {
		t.Fatalf("session total %d != sum of per-step counters %d", got, total)
	}

	// The HTTP stream's summary line must carry the cumulative counter.
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	resp := postJSON(t, srv.URL+"/v1/datasets/d/clean", map[string]interface{}{
		"truth": truth, "val_points": randPoints(8, 2, 103),
	})
	var status SessionStatus
	decodeBody(t, resp, &status)
	resp, err = http.Get(srv.URL + "/v1/clean/" + status.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	var last map[string]interface{}
	for scanner.Scan() {
		last = nil
		if err := json.Unmarshal(scanner.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
	}
	if last["done"] != true {
		t.Fatalf("missing summary line: %v", last)
	}
	if _, ok := last["examined_hypotheses"]; !ok {
		t.Fatalf("summary line missing examined_hypotheses: %v", last)
	}
}

func exampleJSONs(d *dataset.Incomplete) []map[string]interface{} {
	out := make([]map[string]interface{}, d.N())
	for i := range d.Examples {
		out[i] = map[string]interface{}{
			"candidates": d.Examples[i].Candidates,
			"label":      d.Examples[i].Label,
		}
	}
	return out
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
