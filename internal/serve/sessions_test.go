package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/knn"
)

// runSession starts a clean session on s and drives it to completion in one
// uninterrupted DriveFrom, returning every executed step.
func runSession(t *testing.T, s *Server, name string, req CleanRequest) []CleanStep {
	t.Helper()
	sess, err := s.StartCleanSession(name, req)
	if err != nil {
		t.Fatal(err)
	}
	var steps []CleanStep
	done, err := sess.DriveFrom(0, func(step CleanStep) bool {
		steps = append(steps, step)
		return true
	})
	if err != nil || !done {
		t.Fatalf("driving session to completion: done %v, err %v", done, err)
	}
	return steps
}

// cleanBody builds the POST /clean payload shared by the session tests.
func cleanBody(t *testing.T, truth []int, valPts [][]float64) map[string]interface{} {
	t.Helper()
	return map[string]interface{}{"truth": truth, "val_points": valPts}
}

func createSession(t *testing.T, base string, body map[string]interface{}) SessionStatus {
	t.Helper()
	resp := postJSON(t, base+"/v1/datasets/d/clean", body)
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("create session: status %d: %s", resp.StatusCode, b)
	}
	var st SessionStatus
	decodeBody(t, resp, &st)
	return st
}

// TestSessionResumeLockstep is the end-to-end resume guarantee: a run whose
// stream is killed mid-way and finished over /next must execute exactly the
// same step sequence — same rows, same examined_hypotheses — as an
// uninterrupted run, and a full-history replay must reconstruct it.
func TestSessionResumeLockstep(t *testing.T) {
	d := randDataset(t, 36, 3, 2, 2, 0.7, 211)
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	valPts := randPoints(8, 2, 213)
	truth := make([]int, d.N())

	// Reference: the same workload run uninterrupted.
	refSteps := runSession(t, s, "d", CleanRequest{Truth: truth, ValPoints: valPts})
	if len(refSteps) < 4 {
		t.Fatalf("reference run has %d steps; too short to interrupt meaningfully", len(refSteps))
	}

	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	created := createSession(t, srv.URL, cleanBody(t, truth, valPts))

	// Stream, then kill the connection after reading two step lines.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/clean/"+created.ID+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var seen []CleanStep
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() && len(seen) < 2 {
		var step CleanStep
		if err := json.Unmarshal(scanner.Bytes(), &step); err != nil {
			t.Fatalf("bad step line %q: %v", scanner.Text(), err)
		}
		seen = append(seen, step)
	}
	cancel()
	resp.Body.Close()

	// Wait for the server side to notice the disconnect and detach the
	// driver (409 while it is still attached is the documented contract).
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp := postJSON(t, srv.URL+"/v1/clean/"+created.ID+"/next?steps=2", nil)
		if resp.StatusCode == http.StatusConflict {
			resp.Body.Close()
			if time.Now().After(deadline) {
				t.Fatal("driver never detached after client disconnect")
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("first /next after disconnect: status %d: %s", resp.StatusCode, b)
		}
		resp.Body.Close()
		break
	}

	// Finish the run over /next in small pulls.
	for {
		resp := postJSON(t, srv.URL+"/v1/clean/"+created.ID+"/next?steps=3", nil)
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("/next: status %d: %s", resp.StatusCode, b)
		}
		var next struct {
			Steps []CleanStep `json:"steps"`
			Done  bool        `json:"done"`
		}
		decodeBody(t, resp, &next)
		if next.Done {
			break
		}
		if len(next.Steps) == 0 {
			t.Fatal("/next returned no steps and done=false")
		}
	}

	// Replay the full history and compare against the uninterrupted run.
	resp, err = http.Get(srv.URL + "/v1/clean/" + created.ID + "/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var replayed []CleanStep
	var summary map[string]interface{}
	scanner = bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		if strings.Contains(scanner.Text(), `"done"`) {
			if err := json.Unmarshal(scanner.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var step CleanStep
		if err := json.Unmarshal(scanner.Bytes(), &step); err != nil {
			t.Fatalf("bad replay line %q: %v", scanner.Text(), err)
		}
		replayed = append(replayed, step)
	}
	if len(replayed) != len(refSteps) {
		t.Fatalf("interrupted run executed %d steps, uninterrupted %d", len(replayed), len(refSteps))
	}
	var refExamined, gotExamined int64
	for i := range refSteps {
		if replayed[i].Row != refSteps[i].Row || replayed[i].Candidate != refSteps[i].Candidate {
			t.Fatalf("step %d diverged: interrupted cleaned (%d,%d), uninterrupted (%d,%d)",
				i+1, replayed[i].Row, replayed[i].Candidate, refSteps[i].Row, refSteps[i].Candidate)
		}
		if replayed[i].ExaminedHypotheses != refSteps[i].ExaminedHypotheses {
			t.Fatalf("step %d: interrupted examined %d hypotheses, uninterrupted %d",
				i+1, replayed[i].ExaminedHypotheses, refSteps[i].ExaminedHypotheses)
		}
		refExamined += refSteps[i].ExaminedHypotheses
		gotExamined += replayed[i].ExaminedHypotheses
	}
	if summary == nil {
		t.Fatal("full replay of a finished session did not end with a summary line")
	}
	if got := int64(summary["examined_hypotheses"].(float64)); got != refExamined {
		t.Fatalf("summary examined_hypotheses %d, uninterrupted total %d", got, refExamined)
	}
	// The steps watched before the kill are a prefix of the history.
	for i := range seen {
		if seen[i].Row != replayed[i].Row {
			t.Fatalf("pre-disconnect step %d saw row %d, history has %d", i+1, seen[i].Row, replayed[i].Row)
		}
	}
}

// TestSessionCapacityAndRelease pins the 429-at-capacity contract and that
// DELETE frees a slot (and makes the ID a 404, not a 410).
func TestSessionCapacityAndRelease(t *testing.T) {
	d := randDataset(t, 20, 2, 2, 2, 0.4, 221)
	s := NewServer(Config{MaxCleanSessions: 2})
	defer s.Close()
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	body := cleanBody(t, make([]int, d.N()), randPoints(4, 2, 223))

	first := createSession(t, srv.URL, body)
	createSession(t, srv.URL, body)
	resp := postJSON(t, srv.URL+"/v1/datasets/d/clean", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create beyond cap: status %d, want 429", resp.StatusCode)
	}
	if got := s.CleanSessionCount(); got != 2 {
		t.Fatalf("live sessions = %d, want 2", got)
	}

	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/clean/"+first.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", resp.StatusCode)
	}
	createSession(t, srv.URL, body) // slot freed

	resp, err = http.Get(srv.URL + "/v1/clean/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session: status %d, want 404", resp.StatusCode)
	}
}

// TestSessionExpiry pins the idle-TTL contract: an idle session answers 410
// (distinguishable from an unknown ID's 404), its slot is reclaimed, and the
// background reaper evicts abandoned sessions nobody ever looks up again.
func TestSessionExpiry(t *testing.T) {
	d := randDataset(t, 20, 2, 2, 2, 0.4, 227)
	s := NewServer(Config{MaxCleanSessions: 1, SessionTTL: 30 * time.Millisecond})
	defer s.Close()
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	body := cleanBody(t, make([]int, d.N()), randPoints(4, 2, 229))

	st := createSession(t, srv.URL, body)
	time.Sleep(60 * time.Millisecond)
	resp, err := http.Get(srv.URL + "/v1/clean/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("expired session: status %d, want 410", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/clean/cs_never_existed")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", resp.StatusCode)
	}

	// The expiry freed the (capacity-1) slot.
	st = createSession(t, srv.URL, body)

	// The reaper evicts without any lookup touching the ID.
	deadline := time.Now().Add(30 * time.Second)
	for s.CleanSessionCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reaper never evicted the abandoned session (%d live)", s.CleanSessionCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := s.FindCleanSession(st.ID); err == nil {
		t.Fatal("reaped session still resolvable")
	}
}

// TestCreateSweepsExpiredAtCapacity checks a full store sweeps TTL-expired
// sessions before refusing with 429 — a reclaimable slot must not cost a
// client a spurious rejection just because neither a lookup nor a reaper
// tick has evicted its holder yet.
func TestCreateSweepsExpiredAtCapacity(t *testing.T) {
	d := randDataset(t, 20, 2, 2, 2, 0.4, 283)
	s := NewServer(Config{MaxCleanSessions: 1, SessionTTL: time.Hour})
	defer s.Close()
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	req := CleanRequest{Truth: make([]int, d.N()), ValPoints: randPoints(3, 2, 293)}
	old, err := s.StartCleanSession("d", req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartCleanSession("d", req); !errors.Is(err, ErrCapacity) {
		t.Fatalf("create at capacity = %v, want ErrCapacity", err)
	}
	old.mu.Lock()
	old.lastUsed = time.Now().Add(-2 * time.Hour) // idle far past the TTL
	old.mu.Unlock()
	fresh, err := s.StartCleanSession("d", req)
	if err != nil {
		t.Fatalf("create did not reclaim the expired slot: %v", err)
	}
	if _, err := s.FindCleanSession(old.ID()); !errors.Is(err, ErrGone) {
		t.Fatalf("swept session lookup = %v, want ErrGone", err)
	}
	if _, err := s.FindCleanSession(fresh.ID()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionSingleDriver pins the one-driver-at-a-time contract
// deterministically: while one driver is blocked mid-drive, /next and
// DELETE answer 409, and both succeed after it detaches.
func TestSessionSingleDriver(t *testing.T) {
	d := randDataset(t, 24, 3, 2, 2, 0.6, 233)
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	sess, err := s.StartCleanSession("d", CleanRequest{
		Truth:     make([]int, d.N()),
		ValPoints: randPoints(4, 2, 239),
	})
	if err != nil {
		t.Fatal(err)
	}

	inDrive := make(chan struct{})
	releaseDrive := make(chan struct{})
	driveDone := make(chan error, 1)
	go func() {
		_, err := sess.DriveFrom(0, func(CleanStep) bool {
			close(inDrive)
			<-releaseDrive
			return false
		})
		driveDone <- err
	}()
	<-inDrive

	if _, _, err := sess.Next(1); !errors.Is(err, ErrBusy) {
		t.Fatalf("concurrent Next error = %v, want ErrBusy", err)
	}
	if err := s.ReleaseCleanSession(sess.ID()); !errors.Is(err, ErrBusy) {
		t.Fatalf("DELETE while driving error = %v, want ErrBusy", err)
	}
	close(releaseDrive)
	if err := <-driveDone; err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Next(1); err != nil {
		t.Fatalf("Next after driver detached: %v", err)
	}
	if err := s.ReleaseCleanSession(sess.ID()); err != nil {
		t.Fatalf("DELETE after driver detached: %v", err)
	}
}

// TestStartCleanSessionCopiesRequest pins the defensive deep copy: the
// engines are built lazily, so a caller mutating its slices after
// StartCleanSession returns must not corrupt the validated request.
func TestStartCleanSessionCopiesRequest(t *testing.T) {
	d := randDataset(t, 20, 2, 2, 2, 0.5, 277)
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	truth := make([]int, d.N())
	pts := randPoints(3, 2, 281)
	sess, err := s.StartCleanSession("d", CleanRequest{Truth: truth, ValPoints: pts})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), pts[0]...)
	pts[0][0] = 1e9 // would bypass validation if the session aliased it
	truth[0] = 1e6
	sess.mu.Lock()
	aliased := &sess.req.ValPoints[0][0] == &pts[0][0] || sess.req.ValPoints[0][0] != want[0]
	sess.mu.Unlock()
	if aliased {
		t.Fatal("session aliases the caller's ValPoints across the lazy-build window")
	}
	if _, _, err := sess.Next(1); err != nil {
		t.Fatalf("first drive after caller mutated its slices: %v", err)
	}
}

// TestSessionStoreConcurrent hammers create/step/status/expire/delete from
// many goroutines under a tiny TTL — meant for -race. Correctness here is
// "no race, no panic, counts stay within the cap".
func TestSessionStoreConcurrent(t *testing.T) {
	d := randDataset(t, 16, 2, 2, 2, 0.5, 241)
	s := NewServer(Config{MaxCleanSessions: 8, SessionTTL: 20 * time.Millisecond, Parallelism: 2})
	defer s.Close()
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	valPts := randPoints(3, 2, 251)
	truth := make([]int, d.N())
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				sess, err := s.StartCleanSession("d", CleanRequest{Truth: truth, ValPoints: valPts, MaxSteps: 2})
				if err != nil {
					if errors.Is(err, ErrCapacity) {
						continue
					}
					t.Errorf("goroutine %d: create: %v", g, err)
					return
				}
				if _, _, err := sess.Next(2); err != nil && !errors.Is(err, ErrBusy) && !errors.Is(err, ErrGone) {
					t.Errorf("goroutine %d: next: %v", g, err)
					return
				}
				sess.Status()
				if iter%2 == 0 {
					err := s.ReleaseCleanSession(sess.ID())
					if err != nil && !errors.Is(err, ErrGone) && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrBusy) {
						t.Errorf("goroutine %d: release: %v", g, err)
						return
					}
				}
				if g == 0 {
					time.Sleep(25 * time.Millisecond) // let TTL expiry interleave
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.CleanSessionCount(); got > 8 {
		t.Fatalf("live sessions %d exceeded cap 8", got)
	}
}

// TestRequestBodyLimits pins the 413 contract on every capped POST route.
func TestRequestBodyLimits(t *testing.T) {
	d := randDataset(t, 10, 2, 2, 2, 0.4, 257)
	s := NewServer(Config{MaxRegisterBytes: 256, MaxQueryBytes: 128})
	defer s.Close()
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	big := make([][]float64, 64)
	for i := range big {
		big[i] = []float64{1.23456789, 2.3456789}
	}
	resp := postJSON(t, srv.URL+"/v1/datasets/d/query", map[string]interface{}{"points": big})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query: status %d, want 413", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/v1/datasets/d/clean", map[string]interface{}{
		"truth": make([]int, d.N()), "val_points": big,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized clean: status %d, want 413", resp.StatusCode)
	}
	reg := map[string]interface{}{"name": "big", "num_labels": 2, "examples": exampleJSONs(d), "k": 3}
	resp = postJSON(t, srv.URL+"/v1/datasets", reg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized register: status %d, want 413", resp.StatusCode)
	}
	// Under the cap still works.
	resp = postJSON(t, srv.URL+"/v1/datasets/d/query", map[string]interface{}{
		"points": [][]float64{{0, 0}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small query under cap: status %d", resp.StatusCode)
	}
}

// TestStrictJSONDecoding pins the 400s for typo'd field names and trailing
// body data — the silent-ignore bug the decoders used to have.
func TestStrictJSONDecoding(t *testing.T) {
	d := randDataset(t, 10, 2, 2, 2, 0.4, 263)
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/datasets/d/clean", map[string]interface{}{
		"truth": make([]int, d.N()), "vak_points": [][]float64{{0, 0}},
	})
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typo'd field: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(b), "vak_points") {
		t.Fatalf("typo'd-field error does not name the field: %s", b)
	}

	resp, err := http.Post(srv.URL+"/v1/datasets/d/query", "application/json",
		bytes.NewReader([]byte(`{"points":[[0,0]]} {"points":[[1,1]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing data: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(b), "trailing") {
		t.Fatalf("trailing-data error unclear: %s", b)
	}
}

// TestStreamOfFinishedSessionEmitsSummaryOnly checks streaming a done
// session with from at the end yields exactly the flushed summary line.
func TestStreamOfFinishedSessionEmitsSummaryOnly(t *testing.T) {
	d := randDataset(t, 20, 2, 2, 2, 0.5, 269)
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	sess, err := s.StartCleanSession("d", CleanRequest{
		Truth:     make([]int, d.N()),
		ValPoints: randPoints(4, 2, 271),
		MaxSteps:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := sess.Next(5); err != nil || !done {
		t.Fatalf("Next = done %v, err %v; want finished run", done, err)
	}
	// A finished run must not pin its engines until DELETE/TTL: replay and
	// the summary need only the history + snapshot.
	sess.mu.Lock()
	leaked := sess.run != nil
	sess.mu.Unlock()
	if leaked {
		t.Fatal("finished session still holds its run (engines + memos)")
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("%s/v1/clean/%s/stream?from=%d", srv.URL, sess.ID(), sess.Status().Steps))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"done":true`) {
		t.Fatalf("finished-session stream = %q, want a single summary line", b)
	}
	// Out-of-range from is a clear 400.
	resp, err = http.Get(srv.URL + "/v1/clean/" + sess.ID() + "/stream?from=999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from beyond history: status %d, want 400", resp.StatusCode)
	}
}
