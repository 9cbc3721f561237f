package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/knn"
)

// FuzzBatchQuery POSTs arbitrary bytes to the batch-query endpoint of an
// in-memory server (12 rows, 2 features, K = 3, bodies capped at 4 KiB).
// Every body must answer 200, 400 or 413, never a panic or a 5xx. A 200
// body must decode to one result per requested point, each a Q2
// distribution: every fraction finite and ≥ 0, summing to 1 within 1e-9 (a
// fraction may exceed 1 by rounding). Seeds in
// testdata/fuzz/FuzzBatchQuery.
func FuzzBatchQuery(f *testing.F) {
	s := NewServer(Config{MaxQueryBytes: fuzzMaxBody})
	f.Cleanup(s.Close)
	if _, err := s.Register("d", randDataset(f, 12, 3, 2, 2, 0.5, 7), knn.NegEuclidean{}, 3); err != nil {
		f.Fatal(err)
	}
	h := Handler(s)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/d/query", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusOK:
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body.String())
		}
		var req batchBody
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %q answered 200 but does not decode: %v", body, err)
		}
		var res BatchResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("body %q: 200 body %q: %v", body, rec.Body.String(), err)
		}
		if len(res.Results) != len(req.Points) {
			t.Fatalf("body %q: %d results for %d points", body, len(res.Results), len(req.Points))
		}
		for i, r := range res.Results {
			sum := 0.0
			for _, p := range r.Fractions {
				if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
					t.Fatalf("body %q: point %d fractions %v", body, i, r.Fractions)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("body %q: point %d fractions %v sum to %v", body, i, r.Fractions, sum)
			}
		}
	})
}
