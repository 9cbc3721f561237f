package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRegisterRequest POSTs arbitrary bytes to the dataset-registration
// endpoint of a fresh in-memory server per input, with bodies capped at
// 4 KiB. Every body must answer 201, 400, 409 or 413, never a panic or a
// 5xx. A 201 must describe the body it registered: its rows and num_labels
// equal the decoded body's example count and num_labels. Seeds in
// testdata/fuzz/FuzzRegisterRequest.
func FuzzRegisterRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		s := NewServer(Config{MaxRegisterBytes: fuzzMaxBody})
		defer s.Close()
		rec := httptest.NewRecorder()
		Handler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body.String())
		}
		var req registerRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %q answered 201 but does not decode: %v", body, err)
		}
		var info datasetInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatalf("body %q: 201 body %q: %v", body, rec.Body.String(), err)
		}
		if info.Rows != len(req.Examples) || info.NumLabels != req.NumLabels {
			t.Fatalf("body %q: registered %d rows, %d labels; body has %d examples, num_labels %d",
				body, info.Rows, info.NumLabels, len(req.Examples), req.NumLabels)
		}
	})
}
