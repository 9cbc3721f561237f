package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// TestRunOrderedStreamsBeforeCompletion pins the streaming contract: the
// first results are yielded while a later point is still computing, so NDJSON
// first-result latency tracks the fastest point rather than the whole batch.
func TestRunOrderedStreamsBeforeCompletion(t *testing.T) {
	release := make(chan struct{})
	firstYielded := make(chan struct{})
	var order []int
	done := make(chan error, 1)
	go func() {
		done <- runOrdered(context.Background(), 4, 2, nil,
			func(i int) (PointResult, error) {
				if i == 3 {
					<-release // the slow last point
				}
				return PointResult{Prediction: i}, nil
			},
			func(i int, r PointResult) error {
				order = append(order, i)
				if i == 0 {
					close(firstYielded)
				}
				return nil
			})
	}()
	select {
	case <-firstYielded:
		// Point 0 streamed out while point 3 is still blocked — the property
		// under test.
	case <-time.After(10 * time.Second):
		t.Fatal("first result never yielded while the last point was in flight")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("yield order %v, want %v", order, want)
	}
}

// TestRunOrderedLowestIndexError pins the deterministic error contract:
// whichever worker finishes first, the error reported is always the one at
// the lowest failing point index, and no result past it is yielded.
func TestRunOrderedLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for trial := 0; trial < 50; trial++ {
		var yielded []int
		err := runOrdered(context.Background(), 6, 4, nil,
			func(i int) (PointResult, error) {
				switch i {
				case 1:
					return PointResult{}, errLow
				case 3:
					return PointResult{}, errHigh
				}
				return PointResult{Prediction: i}, nil
			},
			func(i int, r PointResult) error {
				yielded = append(yielded, i)
				return nil
			})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: got error %v, want the lowest-index error %v", trial, err, errLow)
		}
		if !reflect.DeepEqual(yielded, []int{0}) {
			t.Fatalf("trial %d: yielded %v, want only index 0 before the error", trial, yielded)
		}
	}
}

// TestRunOrderedYieldErrorStops checks a failed yield (a client write error
// in the NDJSON path) stops the fan-out with that error.
func TestRunOrderedYieldErrorStops(t *testing.T) {
	errWrite := errors.New("client went away")
	var yielded []int
	err := runOrdered(context.Background(), 8, 3, nil,
		func(i int) (PointResult, error) { return PointResult{Prediction: i}, nil },
		func(i int, r PointResult) error {
			yielded = append(yielded, i)
			if i == 2 {
				return errWrite
			}
			return nil
		})
	if !errors.Is(err, errWrite) {
		t.Fatalf("got %v, want the yield error", err)
	}
	if !reflect.DeepEqual(yielded, []int{0, 1, 2}) {
		t.Fatalf("yielded %v, want exactly [0 1 2]", yielded)
	}
}

// streamLine mirrors one NDJSON result line for decoding in tests.
type streamLine struct {
	Index int `json:"index"`
	PointResult
}

// TestBatchQueryNDJSON drives the HTTP NDJSON mode end to end: the response
// is one JSON line per point in request order, each bit-identical to the
// buffered BatchQuery answer, followed by a done trailer with the summary.
func TestBatchQueryNDJSON(t *testing.T) {
	d := randDataset(t, 40, 3, 3, 2, 0.4, 21)
	s := NewServer(Config{Parallelism: 4})
	defer s.Close()
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	points := randPoints(12, 2, 22)
	want, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	body, _ := json.Marshal(map[string]interface{}{"points": points})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/datasets/d/query", bytes.NewReader(body))
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(points)+1 {
		t.Fatalf("got %d lines for %d points (want points+trailer)", len(lines), len(points))
	}
	for i, line := range lines[:len(points)] {
		var got streamLine
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got.Index != i {
			t.Fatalf("line %d carries index %d — results must stream in request order", i, got.Index)
		}
		if !reflect.DeepEqual(got.PointResult, want.Results[i]) {
			t.Fatalf("point %d: streamed %+v, buffered %+v", i, got.PointResult, want.Results[i])
		}
	}
	var trailer struct {
		Done            bool    `json:"done"`
		K               int     `json:"k"`
		Points          int     `json:"points"`
		CertainFraction float64 `json:"certain_fraction"`
	}
	if err := json.Unmarshal([]byte(lines[len(points)]), &trailer); err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || trailer.K != want.K || trailer.Points != len(points) || trailer.CertainFraction != want.CertainFraction {
		t.Fatalf("trailer %+v disagrees with buffered result (k=%d, certain=%v)", trailer, want.K, want.CertainFraction)
	}
}

// TestSessionQueryNDJSON smoke-tests the clean-session NDJSON route: lines
// stream under the session's pins and match the buffered session answer.
func TestSessionQueryNDJSON(t *testing.T) {
	s, _, sess := cleanFixture(t, Config{Parallelism: 2}, 31)
	defer s.Close()
	if _, _, err := sess.Next(2); err != nil {
		t.Fatal(err)
	}
	points := randPoints(4, 2, 32)
	want, err := sess.Query(context.Background(), BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	body, _ := json.Marshal(map[string]interface{}{"points": points})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/clean/"+sess.ID()+"/query", bytes.NewReader(body))
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != len(points)+1 {
		t.Fatalf("got %d lines, want %d", len(lines), len(points)+1)
	}
	for i := range points {
		var got streamLine
		if err := json.Unmarshal([]byte(lines[i]), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got.Index != i || !reflect.DeepEqual(got.PointResult, want.Results[i]) {
			t.Fatalf("point %d: streamed %+v, buffered %+v", i, got.PointResult, want.Results[i])
		}
	}
	if !strings.Contains(lines[len(points)], `"done":true`) {
		t.Fatalf("missing done trailer: %q", lines[len(points)])
	}
}

// TestRegisterRejectsEmptyCandidates hand-builds the malformed dataset that
// dataset.New refuses (an example with zero candidates) and checks Register
// rejects it cleanly instead of letting dim() panic on first query.
func TestRegisterRejectsEmptyCandidates(t *testing.T) {
	bad := &dataset.Incomplete{
		Examples: []dataset.Example{
			{Candidates: nil, Label: 0},
			{Candidates: [][]float64{{1, 2}}, Label: 1},
		},
		NumLabels: 2,
	}
	s := NewServer(Config{})
	defer s.Close()
	_, err := s.Register("bad", bad, knn.NegEuclidean{}, 1)
	if err == nil {
		t.Fatal("Register accepted an example with no candidates")
	}
	if status := errStatus(err); status != http.StatusBadRequest {
		t.Fatalf("empty-candidate registration maps to %d, want 400", status)
	}
	if _, qerr := s.BatchQuery(context.Background(), "bad", BatchRequest{Points: [][]float64{{0, 0}}}); qerr == nil {
		t.Fatal("rejected dataset is queryable")
	}
}
