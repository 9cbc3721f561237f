package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/knn"
)

// applyFixture is the journal the apply-path tests start from: dataset "d",
// session "cs_a" created on it with its first two steps, and the tombstoned
// ID "cs_gone". It also keeps what the cases are built from: a second,
// unregistered dataset "e", cs_a's create record and its first three real
// steps.
type applyFixture struct {
	base    []durable.Record
	d, e    persistedDataset
	create  persistedSession
	steps   []CleanStep
	goneAt  time.Time
	created time.Time
}

func newApplyFixture(t testing.TB) *applyFixture {
	t.Helper()
	leader := NewServer(Config{Logf: t.Logf})
	defer leader.Close()
	d := randDataset(t, 36, 3, 2, 2, 0.7, 307)
	if _, err := leader.Register("d", d, knn.NegEuclidean{}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Register("e", randDataset(t, 6, 2, 2, 2, 0.5, 308), knn.NegManhattan{}, 2); err != nil {
		t.Fatal(err)
	}
	req := CleanRequest{Truth: make([]int, d.N()), ValPoints: randPoints(8, 2, 311)}
	sess, err := leader.StartCleanSession("d", req)
	if err != nil {
		t.Fatal(err)
	}
	steps, _, err := sess.Next(3)
	if err != nil || len(steps) != 3 {
		t.Fatalf("leader ran %d steps (%v), want 3", len(steps), err)
	}
	fx := &applyFixture{
		d:       leader.datasets["d"].persisted(),
		e:       leader.datasets["e"].persisted(),
		steps:   steps,
		goneAt:  time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		created: time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC),
	}
	fx.create = persistedSession{ID: "cs_a", Dataset: "d", K: 3, Truth: req.Truth, ValPoints: req.ValPoints, Created: fx.created}
	fx.base = []durable.Record{
		fx.rec(t, "register", fx.d),
		fx.rec(t, "create", fx.create),
		fx.rec(t, "step", stepRecord{ID: "cs_a", Step: steps[0]}),
		fx.rec(t, "step", stepRecord{ID: "cs_a", Step: steps[1]}),
		fx.rec(t, "expire", expireRecord{ID: "cs_gone", At: fx.goneAt}),
	}
	return fx
}

func (fx *applyFixture) rec(t testing.TB, typ string, payload interface{}) durable.Record {
	t.Helper()
	rec, err := marshalRecord("test", typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// server returns a fresh in-memory server holding the fixture's state.
func (fx *applyFixture) server(t testing.TB, logf func(string, ...interface{})) *Server {
	t.Helper()
	s := NewServer(Config{Logf: logf})
	t.Cleanup(s.Close)
	for _, rec := range fx.base {
		if err := s.applyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// decodedState is the server's snapshotState, decoded.
func decodedState(t testing.TB, s *Server) persistedState {
	t.Helper()
	b, err := s.snapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var ps persistedState
	if err := json.Unmarshal(b, &ps); err != nil {
		t.Fatal(err)
	}
	return ps
}

func stateJSON(t testing.TB, ps persistedState) string {
	t.Helper()
	b, err := json.Marshal(&ps)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestApplyRecordDecisions pins every decision of the one journal-apply
// path, shared by restart recovery and follower replication: for each
// record, the state it leaves (as the snapshot encodes it), whether it was
// skipped with a warning, and the error it returns.
func TestApplyRecordDecisions(t *testing.T) {
	fx := newApplyFixture(t)
	s3 := fx.steps[2]
	gap := s3
	gap.Step = 4
	other := fx.e
	other.Name = "d" // "e"'s content and fingerprint under the registered name
	cases := []struct {
		name    string
		rec     durable.Record
		want    func(ps *persistedState) // the base state's expected change
		logged  bool
		wantGap bool
	}{
		{name: "register/new", rec: fx.rec(t, "register", fx.e),
			want: func(ps *persistedState) { ps.Datasets = append(ps.Datasets, fx.e) }},
		{name: "register/same-fingerprint", rec: fx.rec(t, "register", fx.d)},
		{name: "register/conflict", rec: fx.rec(t, "register", other), logged: true},
		{name: "create/new", rec: fx.rec(t, "create", persistedSession{ID: "cs_b", Dataset: "d", K: 3, Truth: fx.create.Truth, ValPoints: fx.create.ValPoints, Created: fx.created}),
			want: func(ps *persistedState) {
				ps.Sessions = append(ps.Sessions, persistedSession{ID: "cs_b", Dataset: "d", K: 3, Truth: fx.create.Truth, ValPoints: fx.create.ValPoints, Created: fx.created})
			}},
		{name: "create/overlap", rec: fx.rec(t, "create", fx.create)},
		{name: "create/unknown-dataset", rec: fx.rec(t, "create", persistedSession{ID: "cs_c", Dataset: "nope", K: 3, Truth: fx.create.Truth, ValPoints: fx.create.ValPoints}), logged: true},
		{name: "create/tombstoned", rec: fx.rec(t, "create", persistedSession{ID: "cs_gone", Dataset: "d", K: 3, Truth: fx.create.Truth, ValPoints: fx.create.ValPoints})},
		{name: "step/overlap", rec: fx.rec(t, "step", stepRecord{ID: "cs_a", Step: fx.steps[1]})},
		{name: "step/next", rec: fx.rec(t, "step", stepRecord{ID: "cs_a", Step: s3}),
			want: func(ps *persistedState) {
				p := &ps.Sessions[0]
				p.History = append(p.History, s3)
				p.CertainFraction, p.Worlds = s3.CertainFraction, s3.WorldsRemaining
				p.Examined += s3.ExaminedHypotheses
			}},
		{name: "step/gap", rec: fx.rec(t, "step", stepRecord{ID: "cs_a", Step: gap}), wantGap: true},
		{name: "step/unknown-session", rec: fx.rec(t, "step", stepRecord{ID: "cs_zz", Step: fx.steps[0]})},
		{name: "done", rec: fx.rec(t, "done", doneRecord{ID: "cs_a", Steps: 2, CertainFraction: 0.75, Worlds: "12", Examined: 99}),
			want: func(ps *persistedState) {
				p := &ps.Sessions[0]
				p.Done, p.CertainFraction, p.Worlds, p.Examined = true, 0.75, "12", 99
				p.Truth, p.ValPoints, p.MaxSteps = nil, nil, 0
			}},
		{name: "fail", rec: fx.rec(t, "fail", failRecord{ID: "cs_a", Error: "boom"}),
			want: func(ps *persistedState) {
				p := &ps.Sessions[0]
				p.Failed = fmt.Errorf("%w: %s", ErrSessionFailed, "boom").Error()
				p.Truth, p.ValPoints, p.MaxSteps = nil, nil, 0
			}},
		{name: "expire", rec: fx.rec(t, "expire", expireRecord{ID: "cs_a", At: fx.goneAt.Add(time.Minute)}),
			want: func(ps *persistedState) {
				ps.Sessions = nil
				ps.Tombstones["cs_a"] = fx.goneAt.Add(time.Minute)
			}},
		{name: "expire/legacy-zero-at", rec: durable.Record{Entity: "test", Type: "expire", Data: []byte(`{"id":"cs_a"}`)},
			want: func(ps *persistedState) {
				ps.Sessions = nil
				ps.Tombstones["cs_a"] = time.Time{} // stamped with time.Now; checked below
			}},
		{name: "release", rec: fx.rec(t, "release", releaseRecord{ID: "cs_a"}),
			want: func(ps *persistedState) { ps.Sessions = nil }},
		{name: "release/tombstoned", rec: fx.rec(t, "release", releaseRecord{ID: "cs_gone"}),
			want: func(ps *persistedState) { ps.Tombstones = nil }},
		{name: "unknown-type", rec: durable.Record{Entity: "test", Type: "rename", Data: []byte(`{"id":"cs_a"}`)}, logged: true},
		{name: "undecodable", rec: durable.Record{Entity: "test", Type: "step", Data: []byte(`{"id":"cs_a","step":`)}, logged: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var logs []string
			s := fx.server(t, func(format string, args ...interface{}) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				mu.Unlock()
			})
			want := decodedState(t, s)
			if tc.want != nil {
				tc.want(&want)
			}
			before := time.Now()
			err := s.applyRecord(tc.rec)
			after := time.Now()
			var gapErr *stepGapError
			if tc.wantGap != errors.As(err, &gapErr) || (!tc.wantGap && err != nil) {
				t.Fatalf("applyRecord error = %v, want a step gap: %v", err, tc.wantGap)
			}
			got := decodedState(t, s)
			if at, ok := got.Tombstones["cs_a"]; ok && tc.name == "expire/legacy-zero-at" {
				if at.Before(before.Add(-time.Second)) || at.After(after.Add(time.Second)) {
					t.Fatalf("legacy expire stamped %v, want the apply time (%v..%v)", at, before, after)
				}
				got.Tombstones["cs_a"] = time.Time{}
			}
			if g, w := stateJSON(t, got), stateJSON(t, want); g != w {
				t.Fatalf("state after apply:\n got %s\nwant %s", g, w)
			}
			mu.Lock()
			defer mu.Unlock()
			if logged := len(logs) > 0; logged != tc.logged {
				t.Fatalf("logged %q, want a skip warning: %v", logs, tc.logged)
			}
		})
	}
}

// TestStepGapRecoveryVsFollower opens a data directory whose WAL holds a
// step that skips ahead of its session's history. Recovery logs the gap,
// skips it and goes on with the records after it; the follower's apply hook
// returns the same gap, which stops a tail.
func TestStepGapRecoveryVsFollower(t *testing.T) {
	fx := newApplyFixture(t)
	gap := fx.steps[2]
	gap.Step = 4
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.Options{SyncInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range append(fx.base,
		fx.rec(t, "step", stepRecord{ID: "cs_a", Step: gap}),
		fx.rec(t, "step", stepRecord{ID: "cs_a", Step: fx.steps[2]})) {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	srv := openDurable(t, dir, func(cfg *Config) {
		cfg.Logf = func(format string, args ...interface{}) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})
	defer srv.Close()
	mu.Lock()
	logged := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(logged, "step 4 follows 2 applied steps") {
		t.Fatalf("recovery did not log the step gap; logs:\n%s", logged)
	}
	sess, err := srv.FindCleanSession("cs_a")
	if err != nil {
		t.Fatal(err)
	}
	if status := sess.Status(); status.Steps != 3 {
		t.Fatalf("recovered %d steps, want 3 (the gap skipped, the step after it applied)", status.Steps)
	}

	skip := fx.steps[2]
	skip.Step = 5
	err = srv.applyShipped(fx.rec(t, "step", stepRecord{ID: "cs_a", Step: skip}))
	var gapErr *stepGapError
	if !errors.As(err, &gapErr) {
		t.Fatalf("applyShipped(step gap) = %v, want a *stepGapError", err)
	}
	if status := sess.Status(); status.Steps != 3 {
		t.Fatalf("a refused gap changed the session: %d steps, want 3", status.Steps)
	}
}

// FuzzApplyRecord feeds the apply path arbitrary record types and payloads
// (shipped records are bytes from outside the process) against the
// fixture's state. It must never panic, and applying a record twice must
// leave the state applying it once does — tombstone times aside, since a
// legacy expire without a time stamps time.Now.
func FuzzApplyRecord(f *testing.F) {
	fx := newApplyFixture(f)
	quiet := func(string, ...interface{}) {}
	f.Fuzz(func(t *testing.T, typ string, payload []byte) {
		rec := durable.Record{Entity: "fuzz", Type: typ, Data: payload}
		once := fx.server(t, quiet)
		errOnce := once.applyRecord(rec)
		twice := fx.server(t, quiet)
		twice.applyRecord(rec)
		errTwice := twice.applyRecord(rec)
		if (errOnce == nil) != (errTwice == nil) {
			t.Fatalf("first apply error %v, repeat error %v", errOnce, errTwice)
		}
		stripped := func(s *Server) string {
			ps := decodedState(t, s)
			for id := range ps.Tombstones {
				ps.Tombstones[id] = time.Time{}
			}
			return stateJSON(t, ps)
		}
		if g, w := stripped(twice), stripped(once); g != w {
			t.Fatalf("applying %s twice differs from once:\n got %s\nwant %s", typ, g, w)
		}
	})
}
