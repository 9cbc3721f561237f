package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/selection"
	"repro/internal/serve"
)

// tracedRun is what the traced in-process run observed. Its spans wrap the
// benchmark's own calls into serve, core, selection and durable; nothing
// inside the program is instrumented.
type tracedRun struct {
	tr *tracer
	// queryMS is the traced open-loop query latency (HTTP requests only),
	// for the tracing overhead against the untraced run.
	queryMS []time.Duration
	// handlerSelf is, per dataset query, the handler's time minus
	// (*serve.Server).BatchQuery's time for the same body on twin servers.
	handlerSelf []float64
}

// cpserveConfig is the serve.Config cpserve builds from its default flags
// plus -data-dir. Every field is zero (its default) except the result
// cache: cpserve's flag defaults to 64 MiB, while a zero
// Config.ResultCacheBytes disables the cache.
func cpserveConfig(dataDir string) serve.Config {
	return serve.Config{ResultCacheBytes: 64 << 20, DataDir: dataDir}
}

// openInProcess opens a server with cpserve's configuration and a fresh
// data directory under work.
func openInProcess(work string) (*serve.Server, error) {
	dir, err := os.MkdirTemp(work, "traced-")
	if err != nil {
		return nil, err
	}
	return serve.Open(cpserveConfig(dir))
}

// tracedHTTP serves s over loopback with every request wrapped in a
// serve.Handler.ServeHTTP span.
func tracedHTTP(tr *tracer, s *serve.Server) (*httptest.Server, *client) {
	hs := httptest.NewServer(tr.handler("serve.Handler.ServeHTTP", serve.Handler(s)))
	return hs, newClient(hs.URL)
}

// spanHeaders carries a client span to the traced handler.
func spanHeaders(s span) map[string]string {
	return map[string]string{hdrRequest: strconv.FormatInt(s.Request, 10), hdrSpan: strconv.FormatInt(s.ID, 10)}
}

// tracedBatch repeats a batch workload's set-up and open loop against an
// in-process server behind a traced handler, for the traced query latency.
// It then replays the same bodies, in order and one at a time, through two
// twin servers that went through the same set-up: the HTTP handler of one
// and (*serve.Server).BatchQuery of the other, so the handler's self time
// is the difference for the same body in the same cache state. Every point
// the servers had not answered before is recomputed through traced core
// calls and checked against BatchQuery's answer.
func tracedBatch(cfg runConfig, in *inputs, w *batchWork, t *tally) (*tracedRun, error) {
	run := &tracedRun{tr: newTracer()}
	tr := run.tr
	open, err := tracedOpenLoop(cfg, in, w, tr, t)
	if err != nil {
		return nil, err
	}
	run.queryMS = open.latency

	ctx := context.Background()
	twin := func() (*serve.Server, error) {
		s, err := openInProcess(cfg.work)
		if err != nil {
			return nil, err
		}
		if _, err := s.Register(datasetName, in.data, in.kernel, in.k); err != nil {
			s.Close()
			return nil, err
		}
		for i := 0; i < len(w.warm); i += warmBatch {
			if _, err := s.BatchQuery(ctx, datasetName, serve.BatchRequest{Points: w.warm[i:min(i+warmBatch, len(w.warm))]}); err != nil {
				s.Close()
				return nil, err
			}
		}
		return s, nil
	}
	viaHandler, err := twin()
	if err != nil {
		return nil, err
	}
	defer viaHandler.Close()
	direct, err := twin()
	if err != nil {
		return nil, err
	}
	defer direct.Close()
	handler := serve.Handler(viaHandler)
	scratches, err := newScratches(in)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, p := range w.warm {
		seen[pointKey(p)] = true
	}
	for i := range w.openN {
		req := int64(i) + 1
		root := tr.begin("loadbench.replay", 0, req)
		pts := w.pts[w.at(i)]
		rec := httptest.NewRecorder()
		viaHTTP := func() span {
			return tr.within("serve.Handler.ServeHTTP", root.ID, req, func() {
				handler.ServeHTTP(rec, httptest.NewRequest("POST", queryPath, bytes.NewReader(w.bodies[w.at(i)])))
			})
		}
		var res *serve.BatchResult
		viaCall := func() span {
			return tr.within("serve.Server.BatchQuery", root.ID, req, func() {
				res, err = direct.BatchQuery(ctx, datasetName, serve.BatchRequest{Points: pts})
			})
		}
		// Alternate which twin goes first, so running second (warmer CPU
		// caches, a later GC) favours neither side.
		var hs, bq span
		if i%2 == 0 {
			hs, bq = viaHTTP(), viaCall()
		} else {
			bq, hs = viaCall(), viaHTTP()
		}
		if err != nil {
			return nil, err
		}
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("replayed request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		t.record(checkBatch(rec.Body.Bytes(), pts, w.ref))
		run.handlerSelf = append(run.handlerSelf, ms(hs.End-hs.Start)-ms(bq.End-bq.Start))
		step := func(name string, f func()) { tr.within(name, root.ID, req, f) }
		for j, p := range pts {
			if seen[pointKey(p)] {
				continue
			}
			seen[pointKey(p)] = true
			want, err := freshAnswer(in, scratches, p, step)
			if err == nil && !samePoint(res.Results[j], want) {
				err = fmt.Errorf("replayed point %d of request %d: BatchQuery answered %+v, a fresh engine %+v", j, i, res.Results[j], want)
			}
			t.record(err)
		}
		tr.end(root)
	}
	return run, nil
}

// tracedOpenLoop runs the workload's set-up and open loop against an
// in-process server behind a traced handler, and closes the server.
func tracedOpenLoop(cfg runConfig, in *inputs, w *batchWork, tr *tracer, t *tally) (openLoopResult, error) {
	var open openLoopResult
	s, err := openInProcess(cfg.work)
	if err != nil {
		return open, err
	}
	defer s.Close()
	hs, c := tracedHTTP(tr, s)
	defer hs.Close()
	defer c.close()
	ctx := context.Background()
	if _, err := c.do(ctx, "POST", "/v1/datasets", in.register); err != nil {
		return open, err
	}
	if err := warmUp(c, w.warm); err != nil {
		return open, err
	}
	runtime.GC()
	open = openLoop(w.rate, w.openN, nil, func(i int) time.Time {
		s := tr.begin("loadbench.request", 0, int64(i)+1)
		body, err := c.doWith(ctx, "POST", queryPath, w.bodies[w.at(i)], spanHeaders(s))
		tr.end(s)
		done := time.Now()
		if err == nil {
			err = checkBatch(body, w.pts[w.at(i)], w.ref)
		}
		t.record(err)
		return done
	})
	return open, nil
}

// stepRecord is the journal payload of one clean-session step.
type stepRecord struct {
	ID   string          `json:"id"`
	Step serve.CleanStep `json:"step"`
}

// tracedClean repeats clean-live against an in-process server behind a
// traced handler: one session stepped to completion over HTTP, while the
// open-loop client alternates session queries over HTTP with direct
// (*serve.Session).Query calls. It then runs the same cleaning loop through
// the selection package directly and journals step-sized records through
// durable, both traced.
func tracedClean(cfg runConfig, in *inputs, ref *cleanRef, fixed [][]float64, qbody []byte, t *tally) (*tracedRun, error) {
	run := &tracedRun{tr: newTracer()}
	tr := run.tr
	a, err := openInProcess(cfg.work)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	hs, c := tracedHTTP(tr, a)
	defer hs.Close()
	defer c.close()
	ctx := context.Background()
	if _, err := c.do(ctx, "POST", "/v1/datasets", in.register); err != nil {
		return nil, err
	}
	id, err := createSession(c, in)
	if err != nil {
		return nil, err
	}
	sess, err := a.FindCleanSession(id)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var open openLoopResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		open = openLoop(liveRate, 1<<30, stop, func(i int) time.Time {
			s := tr.begin("loadbench.request", 0, int64(i)+1)
			var body []byte
			var res *serve.BatchResult
			var err error
			if i%2 == 0 {
				body, err = c.doWith(ctx, "POST", "/v1/clean/"+id+"/query", qbody, spanHeaders(s))
			} else {
				tr.within("serve.Session.Query", s.ID, s.Request, func() {
					res, err = sess.Query(ctx, serve.BatchRequest{Points: fixed})
				})
			}
			tr.end(s)
			done := time.Now()
			if err == nil && body != nil {
				err = checkBatch(body, fixed, nil)
			}
			for j := 0; err == nil && res != nil && j < len(res.Results); j++ {
				err = checkPoint(res.Results[j])
			}
			t.record(err)
			return done
		})
	}()
	n := 0
	for done := false; !done && err == nil; {
		s := tr.begin("loadbench.step", 0, int64(n)+1)
		var body []byte
		body, err = c.doWith(ctx, "POST", "/v1/clean/"+id+"/next?steps=1", nil, spanHeaders(s))
		tr.end(s)
		var resp stepResponse
		if err == nil {
			err = json.Unmarshal(body, &resp)
		}
		for _, st := range resp.Steps {
			if err == nil && (n >= len(ref.steps) || st.Row != ref.steps[n].Row || st.Candidate != ref.steps[n].Candidate) {
				err = fmt.Errorf("traced session step %d cleaned (row %d, candidate %d); the reference session did not", n+1, st.Row, st.Candidate)
			}
			n++
		}
		done = resp.Done
		t.record(err)
	}
	close(stop)
	wg.Wait()
	if err == nil && n != len(ref.steps) {
		err = fmt.Errorf("traced session finished after %d steps, the reference after %d", n, len(ref.steps))
	}
	if err != nil {
		return nil, err
	}
	for k, i := range open.index {
		if i%2 == 0 {
			run.queryMS = append(run.queryMS, open.latency[k])
		}
	}
	if err := tracedSelection(tr, in, ref); err != nil {
		return nil, err
	}
	t.record(nil)
	dir, err := os.MkdirTemp(cfg.work, "journal-")
	if err != nil {
		return nil, err
	}
	return run, tracedAppends(tr, dir, ref.steps)
}

// tracedSelection runs the clean session's greedy loop directly on the
// selection package — the loop serve's CleanSession.Step runs — with spans
// around SelectBatch and Pin, and checks it cleans the reference sequence.
func tracedSelection(tr *tracer, in *inputs, ref *cleanRef) error {
	k := in.k
	engines := make([]*core.Engine, len(in.vals))
	for v, p := range in.vals {
		tr.within("core.NewEngine", 0, 0, func() { engines[v] = core.NewEngine(in.data, in.kernel, p) })
	}
	scratches, err := core.NewScratchPool(engines[0], k)
	if err != nil {
		return err
	}
	certain := make([]bool, len(engines))
	refresh := func() (all bool, err error) {
		all = true
		for v, e := range engines {
			if !certain[v] {
				if certain[v], err = e.IsCertainMM(k); err != nil {
					return false, err
				}
			}
			all = all && certain[v]
		}
		return all, nil
	}
	all, err := refresh()
	if err != nil {
		return err
	}
	sel, err := selection.New(engines, certain, scratches, selection.Config{K: k, Parallelism: runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	cleaned := make([]bool, in.data.N())
	n := 0
	for !all {
		var rows []int
		for i, ex := range in.data.Examples {
			if !cleaned[i] && ex.M() > 1 {
				rows = append(rows, i)
			}
		}
		if len(rows) == 0 {
			break
		}
		req := int64(n) + 1
		var best []int
		tr.within("selection.Selector.SelectBatch", 0, req, func() { best, _, _ = sel.SelectBatch(rows, 1) })
		row := best[0]
		cleaned[row] = true
		tr.within("selection.Selector.Pin", 0, req, func() { sel.Pin(row, in.truth[row]) })
		if n >= len(ref.steps) || ref.steps[n].Row != row {
			return fmt.Errorf("selection loop step %d cleaned row %d; the reference session did not", n+1, row)
		}
		n++
		if all, err = refresh(); err != nil {
			return err
		}
	}
	if n != len(ref.steps) {
		return fmt.Errorf("selection loop finished after %d steps, the reference after %d", n, len(ref.steps))
	}
	return nil
}

// tracedAppends journals one step record per reference step — the payload
// cpserve journals per step — through (*durable.Store).Append with the
// default group-commit window.
func tracedAppends(tr *tracer, dir string, steps []serve.CleanStep) error {
	st, err := durable.Open(dir, durable.Options{})
	if err != nil {
		return err
	}
	const id = "cs_0123456789abcdef"
	for i, s := range steps {
		data, err := json.Marshal(stepRecord{ID: id, Step: s})
		if err != nil {
			st.Close()
			return err
		}
		rec := durable.Record{Entity: "session/" + id, Type: "step", Data: data}
		tr.within("durable.Store.Append", 0, int64(i)+1, func() { err = st.Append(rec) })
		if err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}
