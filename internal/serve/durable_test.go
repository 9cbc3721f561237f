package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/knn"
)

// openDurable opens a durable server over dir with a tight group-commit
// window so tests don't wait on the default fsync cadence.
func openDurable(t *testing.T, dir string, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{DataDir: dir, WALSyncInterval: time.Millisecond, Logf: t.Logf}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// crashCopy snapshots the data directory exactly as it is on disk right
// now — the process-death simulation: everything still buffered in the
// crashed server's memory (records inside the group-commit window) is lost,
// everything fsynced survives.
func crashCopy(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// runReference executes the same clean workload uninterrupted and returns
// its full step sequence. It runs on a fresh in-memory server holding s's
// dataset, so the reference session never reaches s's journal.
func runReference(t *testing.T, s *Server, name string, req CleanRequest) []CleanStep {
	t.Helper()
	ds, err := s.Dataset(name)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewServer(Config{})
	defer ref.Close()
	if _, err := ref.Register(name, ds.Data(), ds.Kernel(), ds.K()); err != nil {
		t.Fatal(err)
	}
	return runSession(t, ref, name, req)
}

// TestDurableKillRestartLockstep is the acceptance test for the durability
// layer: a clean session interrupted by process death resumes from the data
// directory and the complete run — journaled prefix plus post-restart
// continuation — is bit-for-bit (rows, candidates, examined_hypotheses)
// the sequence an uninterrupted run emits. Steps lost from the group-commit
// window must be re-executed identically, not skipped or diverged from.
func TestDurableKillRestartLockstep(t *testing.T) {
	d := randDataset(t, 36, 3, 2, 2, 0.7, 307)
	req := CleanRequest{Truth: make([]int, d.N()), ValPoints: randPoints(8, 2, 311)}

	dir := t.TempDir()
	srv1 := openDurable(t, dir, nil)
	defer srv1.Close()
	if _, err := srv1.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	refSteps := runReference(t, srv1, "d", req)
	if len(refSteps) < 5 {
		t.Fatalf("reference run has %d steps; too short to interrupt meaningfully", len(refSteps))
	}

	sess, err := srv1.StartCleanSession("d", req)
	if err != nil {
		t.Fatal(err)
	}
	preCrash, _, err := sess.Next(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(preCrash) != 3 {
		t.Fatalf("pre-crash Next executed %d steps, want 3", len(preCrash))
	}
	// Let the group-commit flusher write the step records, then "kill" the
	// process by copying the directory as-is. (Whatever the flusher had not
	// yet synced is legitimately lost — recovery must absorb that too.)
	time.Sleep(50 * time.Millisecond)
	crashDir := crashCopy(t, dir)

	srv2 := openDurable(t, crashDir, nil)
	defer srv2.Close()
	recovered, err := srv2.FindCleanSession(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	st := recovered.Status()
	if st.State != "suspended" {
		t.Fatalf("recovered session state = %q, want suspended", st.State)
	}
	if st.Steps > 3 {
		t.Fatalf("recovered session has %d journaled steps, ran only 3", st.Steps)
	}

	// Finish the run over the HTTP pull interface, like a reconnecting
	// client would.
	web := httptest.NewServer(Handler(srv2))
	defer web.Close()
	for {
		resp := postJSON(t, web.URL+"/v1/clean/"+sess.ID()+"/next?steps=2", nil)
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("/next on recovered session: status %d: %s", resp.StatusCode, b)
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

	// The full history — journaled prefix + post-restart continuation — must
	// equal the uninterrupted reference exactly.
	var replayed []CleanStep
	done, err := recovered.DriveFrom(0, func(step CleanStep) bool {
		replayed = append(replayed, step)
		return true
	})
	if err != nil || !done {
		t.Fatalf("full replay: done %v, err %v", done, err)
	}
	if len(replayed) != len(refSteps) {
		t.Fatalf("resumed run executed %d steps, uninterrupted %d", len(replayed), len(refSteps))
	}
	for i := range refSteps {
		if replayed[i].Row != refSteps[i].Row || replayed[i].Candidate != refSteps[i].Candidate {
			t.Fatalf("step %d diverged: resumed cleaned (%d,%d), uninterrupted (%d,%d)",
				i+1, replayed[i].Row, replayed[i].Candidate, refSteps[i].Row, refSteps[i].Candidate)
		}
		if replayed[i].ExaminedHypotheses != refSteps[i].ExaminedHypotheses {
			t.Fatalf("step %d: resumed examined %d hypotheses, uninterrupted %d",
				i+1, replayed[i].ExaminedHypotheses, refSteps[i].ExaminedHypotheses)
		}
	}
	// The steps the client executed before the crash are a prefix of the
	// recovered history — nothing acknowledged was rewritten.
	for i := range preCrash {
		if preCrash[i].Row != replayed[i].Row {
			t.Fatalf("pre-crash step %d cleaned row %d, recovered history has %d",
				i+1, preCrash[i].Row, replayed[i].Row)
		}
	}
}

// TestDurableDatasetSurvivesRestart pins registration durability end to
// end over HTTP: fingerprint and query answers are identical after a
// graceful restart.
func TestDurableDatasetSurvivesRestart(t *testing.T) {
	d := randDataset(t, 24, 3, 3, 2, 0.5, 331)
	dir := t.TempDir()
	srv1 := openDurable(t, dir, nil)
	web1 := httptest.NewServer(Handler(srv1))
	resp := postJSON(t, web1.URL+"/v1/datasets", map[string]interface{}{
		"name": "web", "num_labels": 3, "examples": exampleJSONs(d), "k": 3,
	})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("register: status %d: %s", resp.StatusCode, b)
	}
	var info datasetInfo
	decodeBody(t, resp, &info)
	points := randPoints(6, 2, 337)
	before, err := srv1.BatchQuery(context.Background(), "web", BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	web1.Close()
	srv1.Close()

	srv2 := openDurable(t, dir, nil)
	defer srv2.Close()
	ds, err := srv2.Dataset("web")
	if err != nil {
		t.Fatalf("dataset did not survive the restart: %v", err)
	}
	if ds.Fingerprint() != info.Fingerprint {
		t.Fatalf("fingerprint changed across restart: %s → %s", info.Fingerprint, ds.Fingerprint())
	}
	after, err := srv2.BatchQuery(context.Background(), "web", BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Results {
		if before.Results[i].Certain != after.Results[i].Certain ||
			before.Results[i].Prediction != after.Results[i].Prediction ||
			before.Results[i].Entropy != after.Results[i].Entropy {
			t.Fatalf("query %d answers differ across restart: %+v vs %+v", i, before.Results[i], after.Results[i])
		}
	}
	// Re-registering the identical dataset is still idempotent.
	if _, err := srv2.Register("web", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatalf("idempotent re-register after restart: %v", err)
	}
	// And a conflicting registration is still refused.
	other := randDataset(t, 24, 3, 3, 2, 0.5, 347)
	if _, err := srv2.Register("web", other, knn.NegEuclidean{}, 3); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting re-register after restart = %v, want ErrConflict", err)
	}
}

// TestDurableReleaseAndExpiryAcrossRestart pins the tombstone contract
// across restarts: a DELETEd session stays 404, an expired one stays 410.
func TestDurableReleaseAndExpiryAcrossRestart(t *testing.T) {
	d := randDataset(t, 20, 2, 2, 2, 0.4, 353)
	dir := t.TempDir()
	srv1 := openDurable(t, dir, func(cfg *Config) { cfg.SessionTTL = time.Hour })
	if _, err := srv1.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	req := CleanRequest{Truth: make([]int, d.N()), ValPoints: randPoints(3, 2, 359)}
	released, err := srv1.StartCleanSession("d", req)
	if err != nil {
		t.Fatal(err)
	}
	expired, err := srv1.StartCleanSession("d", req)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.ReleaseCleanSession(released.ID()); err != nil {
		t.Fatal(err)
	}
	expired.mu.Lock()
	expired.lastUsed = time.Now().Add(-2 * time.Hour)
	expired.mu.Unlock()
	if _, err := srv1.FindCleanSession(expired.ID()); !errors.Is(err, ErrGone) {
		t.Fatalf("expired lookup = %v, want ErrGone", err)
	}
	srv1.Close()

	srv2 := openDurable(t, dir, func(cfg *Config) { cfg.SessionTTL = time.Hour })
	defer srv2.Close()
	if _, err := srv2.FindCleanSession(released.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("released session after restart = %v, want ErrNotFound (404)", err)
	}
	if _, err := srv2.FindCleanSession(expired.ID()); !errors.Is(err, ErrGone) {
		t.Fatalf("expired session after restart = %v, want ErrGone (410)", err)
	}
}

// TestDurableCorruptTailRecovery pins the serve-level corrupt-WAL contract:
// garbage on the end of the active segment (a torn final write) is warned
// about and truncated, and the recovered session still resumes to the exact
// reference sequence.
func TestDurableCorruptTailRecovery(t *testing.T) {
	d := randDataset(t, 30, 3, 2, 2, 0.6, 367)
	req := CleanRequest{Truth: make([]int, d.N()), ValPoints: randPoints(6, 2, 373)}
	dir := t.TempDir()
	srv1 := openDurable(t, dir, nil)
	if _, err := srv1.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	refSteps := runReference(t, srv1, "d", req)
	sess, err := srv1.StartCleanSession("d", req)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Next(2); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	// Tear the tail: half a fake record — a plausible length field with no
	// payload behind it.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err %v)", dir, err)
	}
	active := segs[len(segs)-1]
	f, err := os.OpenFile(active, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var warnings []string
	srv2 := openDurable(t, dir, func(cfg *Config) {
		cfg.Logf = func(format string, args ...interface{}) {
			warnings = append(warnings, strings.TrimSpace(format))
			t.Logf(format, args...)
		}
	})
	defer srv2.Close()
	if len(warnings) == 0 {
		t.Fatal("no warning logged for the torn WAL tail")
	}
	recovered, err := srv2.FindCleanSession(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := recovered.Status().Steps; got != 2 {
		t.Fatalf("recovered session has %d journaled steps, want the 2 written before the tear", got)
	}
	var replayed []CleanStep
	for {
		steps, done, err := recovered.Next(4)
		if err != nil {
			t.Fatal(err)
		}
		replayed = append(replayed, steps...)
		if done {
			break
		}
	}
	full := recovered.Status().Steps
	if full != len(refSteps) {
		t.Fatalf("resumed run finished at %d steps, reference %d", full, len(refSteps))
	}
	for i, step := range replayed {
		ref := refSteps[2+i]
		if step.Row != ref.Row || step.ExaminedHypotheses != ref.ExaminedHypotheses {
			t.Fatalf("post-recovery step %d diverged: (%d, examined %d) vs reference (%d, examined %d)",
				2+i+1, step.Row, step.ExaminedHypotheses, ref.Row, ref.ExaminedHypotheses)
		}
	}
}

// TestDurableCompaction forces WAL rotation with a tiny segment threshold
// and checks the snapshot takes over cleanly: superseded segments deleted,
// and a restart over the compacted directory still has the dataset, the
// finished session, and its full replayable history.
func TestDurableCompaction(t *testing.T) {
	d := randDataset(t, 40, 3, 2, 2, 0.6, 379)
	req := CleanRequest{Truth: make([]int, d.N()), ValPoints: randPoints(6, 2, 383)}
	dir := t.TempDir()
	srv1 := openDurable(t, dir, func(cfg *Config) { cfg.WALSegmentBytes = 2048 })
	if _, err := srv1.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	sess, err := srv1.StartCleanSession("d", req)
	if err != nil {
		t.Fatal(err)
	}
	var history []CleanStep
	for {
		steps, done, err := sess.Next(2)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, steps...)
		if done {
			break
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if len(snaps) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("compaction never produced a snapshot despite a tiny segment threshold")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv1.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no active segment after compaction")
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-00000001.log")); !os.IsNotExist(err) {
		t.Fatalf("superseded segment 1 still present (stat err %v)", err)
	}

	srv2 := openDurable(t, dir, nil)
	defer srv2.Close()
	if _, err := srv2.Dataset("d"); err != nil {
		t.Fatalf("dataset lost across compaction+restart: %v", err)
	}
	recovered, err := srv2.FindCleanSession(sess.ID())
	if err != nil {
		t.Fatalf("session lost across compaction+restart: %v", err)
	}
	st := recovered.Status()
	if st.State != "done" || st.Steps != len(history) {
		t.Fatalf("recovered session = %q with %d steps, want done with %d", st.State, st.Steps, len(history))
	}
	var replayed []CleanStep
	done, err := recovered.DriveFrom(0, func(step CleanStep) bool {
		replayed = append(replayed, step)
		return true
	})
	if err != nil || !done {
		t.Fatalf("replay of recovered done session: done %v, err %v", done, err)
	}
	for i := range history {
		if replayed[i].Row != history[i].Row || replayed[i].ExaminedHypotheses != history[i].ExaminedHypotheses {
			t.Fatalf("replayed step %d differs from the original run", i+1)
		}
	}
}

// TestServerUnavailableAfterClose pins the 503 serving-window contract.
func TestServerUnavailableAfterClose(t *testing.T) {
	d := randDataset(t, 12, 2, 2, 2, 0.4, 389)
	s := NewServer(Config{})
	if _, err := s.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(Handler(s))
	defer web.Close()
	s.Close()
	resp, err := http.Get(web.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed server answered %d, want 503", resp.StatusCode)
	}
	if _, err := s.StartCleanSession("d", CleanRequest{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("StartCleanSession on closed server = %v, want ErrUnavailable", err)
	}
}
