package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// KernelSpec names a similarity kernel in the wire format.
type KernelSpec struct {
	// Name is one of neg-euclidean (default), neg-sq-euclidean,
	// neg-manhattan, linear, cosine, rbf.
	Name string `json:"name"`
	// Gamma is the RBF bandwidth (rbf only; must be > 0).
	Gamma float64 `json:"gamma,omitempty"`
}

// Kernel resolves the spec.
func (ks KernelSpec) Kernel() (knn.Kernel, error) {
	switch ks.Name {
	case "", "neg-euclidean":
		return knn.NegEuclidean{}, nil
	case "neg-sq-euclidean":
		return knn.NegSquaredEuclidean{}, nil
	case "neg-manhattan":
		return knn.NegManhattan{}, nil
	case "linear":
		return knn.Linear{}, nil
	case "cosine":
		return knn.Cosine{}, nil
	case "rbf":
		if ks.Gamma <= 0 {
			return nil, fmt.Errorf("serve: rbf kernel needs gamma > 0")
		}
		return knn.RBF{Gamma: ks.Gamma}, nil
	default:
		return nil, fmt.Errorf("serve: unknown kernel %q", ks.Name)
	}
}

// exampleJSON is one training example on the wire.
type exampleJSON struct {
	Candidates [][]float64 `json:"candidates"`
	Label      int         `json:"label"`
}

// registerRequest is the POST /v1/datasets body.
type registerRequest struct {
	Name      string        `json:"name"`
	NumLabels int           `json:"num_labels"`
	Examples  []exampleJSON `json:"examples"`
	Kernel    KernelSpec    `json:"kernel"`
	K         int           `json:"k"`
}

// datasetInfo describes a registered dataset on the wire.
type datasetInfo struct {
	Name            string      `json:"name"`
	Fingerprint     string      `json:"fingerprint"`
	Rows            int         `json:"rows"`
	UncertainRows   int         `json:"uncertain_rows"`
	TotalCandidates int         `json:"total_candidates"`
	Worlds          string      `json:"worlds"`
	NumLabels       int         `json:"num_labels"`
	Kernel          string      `json:"kernel"`
	K               int         `json:"k"`
	Pools           []PoolStats `json:"pools,omitempty"`
}

func infoFor(d *Dataset, withPools bool) datasetInfo {
	info := datasetInfo{
		Name:            d.Name(),
		Fingerprint:     d.Fingerprint(),
		Rows:            d.Data().N(),
		UncertainRows:   len(d.Data().UncertainRows()),
		TotalCandidates: d.Data().TotalCandidates(),
		Worlds:          d.Data().WorldCount().String(),
		NumLabels:       d.Data().NumLabels,
		Kernel:          d.Kernel().Name(),
		K:               d.K(),
	}
	if withPools {
		info.Pools = d.Stats()
	}
	return info
}

// decodeJSON reads one strict JSON body: size-capped with MaxBytesReader
// (413 on overflow; maxBytes <= 0 disables the cap), unknown fields rejected
// (a typo'd "vak_points" is a 400 naming the field, not a confusing
// validation error), and trailing data after the object rejected. On error
// the response has already been written; callers just return.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v interface{}) bool {
	if maxBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, decodeStatus(err), fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("serve: trailing data after JSON body")
		} else {
			err = fmt.Errorf("serve: trailing data after JSON body: %w", err)
		}
		httpError(w, decodeStatus(err), err)
		return false
	}
	return true
}

func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Handler returns the HTTP/JSON API over the server:
//
//	POST   /v1/datasets                 register a dataset
//	GET    /v1/datasets                 list registered names
//	GET    /v1/datasets/{name}          dataset info + serving stats
//	POST   /v1/datasets/{name}/query    batch CP query (BatchRequest → BatchResult;
//	                                    Accept: application/x-ndjson streams one
//	                                    result line per point in request order)
//	POST   /v1/datasets/{name}/clean    create a CPClean session → 201 SessionStatus
//	GET    /v1/clean/{id}               session status
//	POST   /v1/clean/{id}/next?steps=N  execute up to N steps (resumable pull)
//	GET    /v1/clean/{id}/stream?from=K replay steps after K, then stream live NDJSON
//	POST   /v1/clean/{id}/query         batch CP query under the session's pins
//	                                    (same NDJSON streaming via Accept)
//	DELETE /v1/clean/{id}               release the session
//	GET    /v1/stats                    server-wide serving + WAL + replication statistics
//	GET    /v1/wal/stream?from=S,O      (leader only) CRC-framed WAL ship stream
//	GET    /v1/wal/snapshot             (leader only) newest snapshot for follower bootstrap
//
// A follower (Config.FollowURL) answers every read route from replicated
// state; writes (dataset registration, session creation, stepping, release)
// get 421 Misdirected Request with the leader's URL in the Leader header.
//
// Every route answers 503 once the server is closed (cpserve additionally
// serves 503 at the listener while Open is still replaying the data
// directory, before any Server exists to build a Handler around).
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if !decodeJSON(w, r, s.cfg.MaxRegisterBytes, &req) {
			return
		}
		examples := make([]dataset.Example, len(req.Examples))
		for i, ex := range req.Examples {
			examples[i] = dataset.Example{Candidates: ex.Candidates, Label: ex.Label}
		}
		d, err := newDataset(examples, req.NumLabels)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		kernel, err := req.Kernel.Kernel()
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		ds, err := s.Register(req.Name, d, kernel, req.K)
		if err != nil {
			s.httpFail(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, infoFor(ds, false))
	})
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]interface{}{"datasets": s.Names()})
	})
	mux.HandleFunc("GET /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		ds, err := s.Dataset(r.PathValue("name"))
		if err != nil {
			s.httpFail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, infoFor(ds, true))
	})
	mux.HandleFunc("POST /v1/datasets/{name}/query", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		s.serveBatch(w, r, func(ctx context.Context, req BatchRequest, yield func(int, PointResult) error) (BatchSummary, error) {
			return s.StreamBatchQuery(ctx, name, req, yield)
		})
	})
	mux.HandleFunc("POST /v1/datasets/{name}/clean", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Truth     []int       `json:"truth"`
			ValPoints [][]float64 `json:"val_points"`
			K         int         `json:"k"`
			MaxSteps  int         `json:"max_steps"`
		}
		if !decodeJSON(w, r, s.cfg.MaxQueryBytes, &req) {
			return
		}
		sess, err := s.StartCleanSession(r.PathValue("name"), CleanRequest{
			Truth: req.Truth, ValPoints: req.ValPoints, K: req.K, MaxSteps: req.MaxSteps,
		})
		if err != nil {
			s.httpFail(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, sess.Status())
	})
	mux.HandleFunc("POST /v1/clean/{id}/query", func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.FindCleanSession(r.PathValue("id"))
		if err != nil {
			s.httpFail(w, err)
			return
		}
		// Answers reflect the session's current cleaning state (every executed
		// step applied as a pin); repeats reuse the per-point Q2 memos.
		s.serveBatch(w, r, sess.StreamQuery)
	})
	mux.HandleFunc("GET /v1/clean/{id}", func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.FindCleanSession(r.PathValue("id"))
		if err != nil {
			s.httpFail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, sess.Status())
	})
	mux.HandleFunc("POST /v1/clean/{id}/next", func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.FindCleanSession(r.PathValue("id"))
		if err != nil {
			s.httpFail(w, err)
			return
		}
		n := 1
		if q := r.URL.Query().Get("steps"); q != "" {
			n, err = strconv.Atoi(q)
			if err != nil || n <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("serve: steps=%q must be a positive integer", q))
				return
			}
		}
		steps, done, err := sess.Next(n)
		if err != nil {
			s.httpFail(w, err)
			return
		}
		if steps == nil {
			steps = []CleanStep{}
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"id":      sess.ID(),
			"steps":   steps,
			"done":    done,
			"session": sess.Status(),
		})
	})
	mux.HandleFunc("GET /v1/clean/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.FindCleanSession(r.PathValue("id"))
		if err != nil {
			s.httpFail(w, err)
			return
		}
		from := 0
		if q := r.URL.Query().Get("from"); q != "" {
			from, err = strconv.Atoi(q)
			if err != nil || from < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("serve: from=%q must be a non-negative integer", q))
				return
			}
		}
		// One NDJSON object per step — replayed history first, then live —
		// each flushed as it is written so slow runs still deliver progress.
		// A failed write (client gone) just detaches the driver: every
		// executed step is in the session history, so the client resumes
		// with ?from= or /next after reconnecting.
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		headerWritten := false
		writeLine := func(v interface{}) bool {
			if !headerWritten {
				w.WriteHeader(http.StatusOK)
				headerWritten = true
			}
			if err := enc.Encode(v); err != nil {
				return false
			}
			if flusher != nil {
				flusher.Flush()
			}
			return true
		}
		ctx := r.Context()
		done, err := sess.DriveFrom(from, func(step CleanStep) bool {
			if ctx.Err() != nil {
				return false
			}
			return writeLine(step)
		})
		if err != nil {
			if !headerWritten {
				// Nothing streamed yet — a proper status code is still possible
				// (busy session → 409, bad from → 400, ...).
				s.httpFail(w, err)
				return
			}
			writeLine(map[string]string{"error": err.Error()})
			return
		}
		if done {
			st := sess.Status()
			writeLine(map[string]interface{}{
				"done":                true,
				"id":                  st.ID,
				"steps":               st.Steps,
				"certain_fraction":    st.CertainFraction,
				"worlds_remaining":    st.WorldsRemaining,
				"examined_hypotheses": st.ExaminedHypotheses,
			})
		}
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	if s.shipper != nil {
		// Leader only: followers tail these to replicate the journal. The
		// replica package handles its own status codes (it is transport, not
		// part of the JSON error contract above).
		mux.HandleFunc("GET /v1/wal/stream", s.shipper.ServeStream)
		mux.HandleFunc("GET /v1/wal/snapshot", s.shipper.ServeSnapshot)
	}
	mux.HandleFunc("DELETE /v1/clean/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.ReleaseCleanSession(r.PathValue("id")); err != nil {
			s.httpFail(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := s.availErr(); err != nil {
			s.httpFail(w, err)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// wantsNDJSON reports whether the request opted into the streaming batch
// encoding.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// streamPointLine is one NDJSON result line: the point's index in the
// request plus its full PointResult fields, inlined.
type streamPointLine struct {
	Index int `json:"index"`
	PointResult
}

// batchBody is the wire form of a batch query request.
type batchBody struct {
	Points [][]float64 `json:"points"`
	K      int         `json:"k"`
	UseMC  bool        `json:"use_mc"`
}

// serveBatch decodes a {points, k, use_mc} batch body and answers it through
// stream — the one handler body behind the dataset and session query routes:
// NDJSON lines when the client asks for them, one buffered JSON body
// otherwise.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, stream func(ctx context.Context, req BatchRequest, yield func(int, PointResult) error) (BatchSummary, error)) {
	var body batchBody
	if !decodeJSON(w, r, s.cfg.MaxQueryBytes, &body) {
		return
	}
	req := BatchRequest{Points: body.Points, K: body.K, UseMC: body.UseMC}
	run := func(yield func(int, PointResult) error) (BatchSummary, error) {
		return stream(r.Context(), req, yield)
	}
	if wantsNDJSON(r) {
		streamBatchNDJSON(w, run)
		return
	}
	res, err := collect(len(req.Points), run)
	if err != nil {
		// A canceled request context means the client disconnected
		// mid-batch; the fan-out already stopped and freed its workers.
		// 499 (nginx's "client closed request") goes nowhere, but keeps
		// logs and metrics truthful — consistent with the clean-stream
		// path, which likewise stops stepping on a dead connection.
		s.httpFail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// streamBatchNDJSON answers a batch query as NDJSON: one result line per
// point, written and flushed in request order the moment the point (and all
// earlier ones) completes — so first-result latency tracks the fastest
// point, not the whole batch — then one trailer line with the summary
// ("done": true, k, points, certain_fraction). Errors before the first line
// still get a proper status code; a mid-stream error is reported as a final
// {"error": ...} line, mirroring the clean-stream protocol.
func streamBatchNDJSON(w http.ResponseWriter, run func(yield func(int, PointResult) error) (BatchSummary, error)) {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	headerWritten := false
	writeLine := func(v interface{}) error {
		if !headerWritten {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			headerWritten = true
		}
		if err := enc.Encode(v); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	sum, err := run(func(i int, r PointResult) error {
		return writeLine(streamPointLine{Index: i, PointResult: r})
	})
	if err != nil {
		if !headerWritten {
			httpError(w, errStatus(err), err)
			return
		}
		// The stream is already 200; a trailer line is the only error channel
		// left (and if the write itself failed, the client is gone anyway).
		_ = writeLine(map[string]string{"error": err.Error()})
		return
	}
	_ = writeLine(map[string]interface{}{
		"done":             true,
		"k":                sum.K,
		"points":           sum.Points,
		"certain_fraction": sum.CertainFraction,
	})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// httpFail is httpError with the status derived from the error, plus the
// follower write-rejection contract: an ErrNotLeader response carries the
// leader's base URL in the Leader header so a misdirected writer can retry
// there without parsing the body.
func (s *Server) httpFail(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrNotLeader) {
		if leader := s.LeaderURL(); leader != "" {
			w.Header().Set("Leader", leader)
		}
	}
	httpError(w, errStatus(err), err)
}

// statusClientClosedRequest is nginx's non-standard 499: the client closed
// the connection before the response was ready. No client reads it; it keeps
// access logs and metrics distinguishing "we failed" from "they left".
const statusClientClosedRequest = 499

// errStatus maps server errors to HTTP status codes: unknown dataset or
// session → 404, expired session → 410, session at capacity → 429, busy
// session or conflicting registration → 409, a session killed by a
// server-side step error or a write the durable journal rejected → 500,
// server outside its serving window (replaying at startup, or shut down)
// → 503, client disconnect canceling the request's work → 499, anything
// else (validation) → 400.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return statusClientClosedRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrGone):
		return http.StatusGone
	case errors.Is(err, ErrBusy), errors.Is(err, ErrConflict):
		return http.StatusConflict
	case errors.Is(err, ErrCapacity):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrSessionFailed), errors.Is(err, ErrPersist):
		return http.StatusInternalServerError
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotLeader):
		// 421 Misdirected Request: this replica cannot take writes; the
		// Leader response header names where to retry.
		return http.StatusMisdirectedRequest
	default:
		return http.StatusBadRequest
	}
}
