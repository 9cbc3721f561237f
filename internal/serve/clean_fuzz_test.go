package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/knn"
)

// fuzzMaxBody caps the fuzzed request bodies, so an oversized body reaches
// the 413 path at a size the fuzzer can produce.
const fuzzMaxBody = 4 << 10

// FuzzCleanRequest POSTs arbitrary bytes to the clean-session endpoint of an
// in-memory server (12 rows, 2 features, K = 3). The decoder and the request
// validation are the only code on that path, since a session builds nothing
// until its first driver: every body must answer 201, 400 or 413, never a
// panic or a 5xx. Each created session is deleted again, so the session cap
// is never what answers. Seeds in testdata/fuzz/FuzzCleanRequest.
func FuzzCleanRequest(f *testing.F) {
	s := NewServer(Config{MaxQueryBytes: fuzzMaxBody})
	f.Cleanup(s.Close)
	if _, err := s.Register("d", randDataset(f, 12, 3, 2, 2, 0.5, 7), knn.NegEuclidean{}, 3); err != nil {
		f.Fatal(err)
	}
	h := Handler(s)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/d/clean", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		case http.StatusCreated:
			var st SessionStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("201 body %q: %v", rec.Body.String(), err)
			}
			del := httptest.NewRecorder()
			h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/clean/"+st.ID, nil))
			if del.Code != http.StatusNoContent {
				t.Fatalf("DELETE of created session %s: status %d: %s", st.ID, del.Code, del.Body.String())
			}
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body.String())
		}
	})
}
