package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// discardResponse is an http.ResponseWriter that drops the body, so the
// codec benchmarks count only encoding work.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkHTTPCodec measures the HTTP layer's own work on a 16-point batch
// of 7-dimensional points (the Supreme encoding's width) over two labels:
// decode is the strict request-body decode the query routes run
// (decodeJSON into batchBody); encode/json writes the buffered BatchResult
// body and encode/ndjson the streamed per-point lines plus trailer.
func BenchmarkHTTPCodec(b *testing.B) {
	points := randPoints(16, 7, 1801)
	body, err := json.Marshal(batchBody{Points: points, K: 3})
	if err != nil {
		b.Fatal(err)
	}
	res := &BatchResult{K: 3, Results: make([]PointResult, len(points))}
	for i := range res.Results {
		f := 0.25 + float64(i)/64
		res.Results[i] = PointResult{Prediction: i % 2, Certain: i%3 == 0, Entropy: 0.5 + float64(i)/100, Fractions: []float64{f, 1 - f}}
	}

	b.Run("decode", func(b *testing.B) {
		w := &discardResponse{h: http.Header{}}
		r, err := http.NewRequest(http.MethodPost, "/v1/datasets/d/query", nil)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			r.Body = io.NopCloser(bytes.NewReader(body))
			var got batchBody
			if !decodeJSON(w, r, 1<<20, &got) || len(got.Points) != len(points) {
				b.Fatal("decode failed")
			}
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		w := &discardResponse{h: http.Header{}}
		b.ReportAllocs()
		for b.Loop() {
			writeJSON(w, http.StatusOK, res)
		}
	})
	b.Run("encode/ndjson", func(b *testing.B) {
		w := &discardResponse{h: http.Header{}}
		run := func(yield func(int, PointResult) error) (BatchSummary, error) {
			for i, r := range res.Results {
				if err := yield(i, r); err != nil {
					return BatchSummary{}, err
				}
			}
			return BatchSummary{K: res.K, Points: len(res.Results)}, nil
		}
		b.ReportAllocs()
		for b.Loop() {
			streamBatchNDJSON(w, run)
		}
	})
}
