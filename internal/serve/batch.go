package serve

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// BatchRequest asks for CP answers for many test points in one call.
type BatchRequest struct {
	// Points holds the encoded test points.
	Points [][]float64
	// K overrides the dataset default when > 0.
	K int
	// UseMC answers Q2 with the multi-class winner-cap DP (appendix A.3)
	// instead of tally enumeration — preferable for large label alphabets.
	UseMC bool
}

// PointResult is the CP answer for one test point.
type PointResult struct {
	// Prediction is the most supported label (smallest-label tie-break).
	Prediction int `json:"prediction"`
	// Certain reports Q1: every possible world predicts Prediction.
	Certain bool `json:"certain"`
	// Entropy is the Shannon entropy (nats) of the Q2 distribution.
	Entropy float64 `json:"entropy"`
	// Fractions is the normalized Q2 answer per label. Treat as read-only:
	// cached results share one backing slice across callers.
	Fractions []float64 `json:"fractions"`
}

// BatchResult summarizes one batch.
type BatchResult struct {
	K int `json:"k"`
	// Results is parallel to the request's Points.
	Results []PointResult `json:"results"`
	// CertainFraction is the fraction of CP'ed points in the batch.
	CertainFraction float64 `json:"certain_fraction"`
}

// BatchSummary is the per-batch aggregate a streaming query reports after its
// last point — the NDJSON trailer line's payload.
type BatchSummary struct {
	K int `json:"k"`
	// Points is the number of points answered.
	Points int `json:"points"`
	// CertainFraction is the fraction of CP'ed points in the batch.
	CertainFraction float64 `json:"certain_fraction"`
}

// batchWorkers sizes a batch's point fan-out: Config.Parallelism, but never
// more workers than points and never fewer than one.
func batchWorkers(cfg Config, points int) int {
	return max(1, min(cfg.Parallelism, points))
}

// BatchQuery answers Q1/Q2/entropy for every point of the request against
// the named dataset, fanning the points out across the server's worker
// budget. A point requested twice before is answered by the result cache
// when one is configured (it admits an answer on its point's second miss);
// otherwise its engine comes from the per-dataset LRU (built on a miss), a
// Scratch from the shared free list, and a fresh SS-DC sweep answers Q2.
// Canceling ctx — a disconnected HTTP client above all — stops the fan-out:
// remaining points are never started, in-flight workers stop at the next
// point boundary, and the context's error is returned with partial work
// discarded.
func (s *Server) BatchQuery(ctx context.Context, name string, req BatchRequest) (*BatchResult, error) {
	ds, err := s.Dataset(name)
	if err != nil {
		return nil, err
	}
	return ds.BatchQuery(ctx, req, s.cfg)
}

// StreamBatchQuery is BatchQuery with the results delivered through yield in
// request order as they complete, instead of buffered — the engine behind
// the NDJSON batch mode. A yield error aborts the batch and is returned.
func (s *Server) StreamBatchQuery(ctx context.Context, name string, req BatchRequest, yield func(i int, r PointResult) error) (BatchSummary, error) {
	ds, err := s.Dataset(name)
	if err != nil {
		return BatchSummary{}, err
	}
	return ds.StreamBatchQuery(ctx, req, s.cfg, yield)
}

// BatchQuery is the dataset-level batch entry point: the streaming pipeline
// with a buffer as its sink.
func (d *Dataset) BatchQuery(ctx context.Context, req BatchRequest, cfg Config) (*BatchResult, error) {
	return collect(len(req.Points), func(yield func(int, PointResult) error) (BatchSummary, error) {
		return d.StreamBatchQuery(ctx, req, cfg, yield)
	})
}

// collect buffers a streaming batch query of n points into a BatchResult —
// the one sink behind every buffered batch answer.
func collect(n int, stream func(yield func(int, PointResult) error) (BatchSummary, error)) (*BatchResult, error) {
	res := &BatchResult{Results: make([]PointResult, n)}
	sum, err := stream(func(i int, r PointResult) error {
		res.Results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.K, res.CertainFraction = sum.K, sum.CertainFraction
	return res, nil
}

// StreamBatchQuery answers the request point by point, invoking yield in
// request order as results complete. Pooled engines are never pinned, so a
// dataset-level answer can never go stale: each point is looked up in the
// result cache (when one is configured) first, and a hit skips the engine
// layer entirely; a miss's answer is offered to the cache, which admits it
// on the key's second miss.
func (d *Dataset) StreamBatchQuery(ctx context.Context, req BatchRequest, cfg Config, yield func(i int, r PointResult) error) (BatchSummary, error) {
	cfg = cfg.withDefaults()
	k, err := d.resolveK(req.K)
	if err != nil {
		return BatchSummary{}, err
	}
	results := cfg.results
	return d.batchQuery(ctx, cfg, req, k, func(pt []float64, pk string) (PointResult, error) {
		var key string
		if results != nil {
			key = resultKey(d.fingerprint, k, req.UseMC, pk)
			if r, ok := results.get(key); ok {
				return r, nil
			}
		}
		pool := d.pool(k, cfg)
		r, err := pool.query(pool.engine(pt), k, req.UseMC)
		if err == nil && results != nil {
			results.put(key, r)
		}
		return r, err
	}, yield)
}

// batchQuery is the one batch pipeline behind dataset and session queries:
// it checks every point's dimension, then fans the points out (runOrdered's
// reorder buffer over the worker pool) and yields their answers in request
// order; answer computes one point, given the point and its pointKey. On a
// query error the lowest failing point index's error is returned —
// deterministically, regardless of worker scheduling.
func (d *Dataset) batchQuery(ctx context.Context, cfg Config, req BatchRequest, k int,
	answer func(pt []float64, pk string) (PointResult, error), yield func(i int, r PointResult) error) (BatchSummary, error) {
	dim := d.dim()
	for i, t := range req.Points {
		if len(t) != dim {
			return BatchSummary{}, fmt.Errorf("serve: point %d has dim %d, dataset expects %d", i, len(t), dim)
		}
	}
	certain := 0
	err := runOrdered(ctx, len(req.Points), batchWorkers(cfg, len(req.Points)), cfg.streams,
		func(i int) (PointResult, error) {
			pt := req.Points[i]
			return answer(pt, pointKey(pt))
		},
		func(i int, r PointResult) error {
			if r.Certain {
				certain++
			}
			return yield(i, r)
		})
	if err != nil {
		if ctx.Err() != nil {
			// Partial results are abandoned: the caller disconnected, nobody
			// is left to read them. The wrapped context error lets the HTTP
			// layer answer with 499-style closed-connection handling.
			return BatchSummary{}, fmt.Errorf("serve: batch query abandoned: %w", ctx.Err())
		}
		return BatchSummary{}, err
	}
	sum := BatchSummary{K: k, Points: len(req.Points)}
	if len(req.Points) > 0 {
		sum.CertainFraction = float64(certain) / float64(len(req.Points))
	}
	return sum, nil
}

// assemblePointResult derives prediction, entropy, and Q1 certainty from an
// owned Q2 fraction slice (exact MM for binary labels, threshold certainty
// otherwise). The plain sweep and the session retained-memo paths both end
// here, so their answers agree field for field.
func assemblePointResult(e *core.Engine, k int, fractions []float64) (PointResult, error) {
	r := PointResult{
		Prediction: core.ArgmaxProb(fractions),
		Entropy:    core.Entropy(fractions),
		Fractions:  fractions,
	}
	if e.Instance().NumLabels == 2 {
		// MM answers Q1 exactly (no float tolerance) for binary labels.
		q1, err := e.CheckMM(k, -1, -1)
		if err != nil {
			return r, err
		}
		for _, b := range q1 {
			r.Certain = r.Certain || b
		}
	} else {
		r.Certain = core.IsCertain(fractions)
	}
	return r, nil
}

// dim returns the feature dimension of the dataset. Registration rejects
// rows with empty candidate sets, so the indexing below is safe for any
// registered dataset; the guards keep a hand-built zero-row or zero-candidate
// value from panicking regardless.
func (d *Dataset) dim() int {
	if d.data.N() == 0 || d.data.Examples[0].M() == 0 {
		return 0
	}
	return len(d.data.Examples[0].Candidates[0])
}
