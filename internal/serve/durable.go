package serve

// This file is the bridge between the serving layer and internal/durable:
// the journal (what gets written, and with which durability class), the
// persisted wire schemas, and the journal's one interpreter (how snapshot +
// record stream fold back into a Server), shared by restart recovery and
// follower replication.
//
// Journal design: every state transition the server must survive is one
// record in one entity's stream —
//
//	dataset/<name>: register                      (the full dataset content)
//	session/<id>:   create, step*, done|fail, expire|release
//
// Registrations, session creations, and terminal events use group-commit
// AppendSync (the client's acknowledgement implies durability); per-step
// records use async Append — a crash can lose the freshest few steps, but
// CPClean's step function is deterministic (the PR-3 lockstep property), so
// recovery re-executes exactly the lost tail and the resumed run emits a
// bit-for-bit identical sequence. Durability batching therefore bounds
// redone work, never correctness.
//
// Recovery design: datasets are rebuilt eagerly (cheap: decode + fingerprint
// check); sessions are re-materialized in a "suspended" state holding only
// their request and executed-step history. The first driver that touches a
// suspended session rebuilds its engines and re-executes the journaled
// prefix through the selection engine, verifying each re-executed step
// against the history — after that the selector's memos are in exactly the
// state an uninterrupted run would have, which is what makes the remaining
// sequence (rows, candidates, examined_hypotheses) bit-identical.
//
// Apply design: applySnapshot and applyRecord are the only code that turns
// journal state into server state. recoverFrom feeds them the local snapshot
// and WAL at Open; a follower feeds them the leader's (follower.go). They
// never branch on their caller and take the owning locks in the canonical
// order, so two servers that read the same journal prefix hold the same
// state. The callers differ in one decision only: a step that skips ahead of
// its session's history (a *stepGapError) is logged and skipped by
// recovery, and stops a follower's tail.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/knn"
)

// sortedKeys returns m's keys in ascending order — the sanctioned way to
// iterate a map inside //cpvet:deterministic scope, where raw map ranges are
// rejected by the maporder analyzer.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// persistedDataset is the journaled form of one registration: the full
// content (candidates round-trip bit-exactly through JSON — Go emits the
// shortest float form that parses back to the same float64), plus the
// fingerprint as an end-to-end integrity check on top of the WAL's CRC.
type persistedDataset struct {
	Name        string        `json:"name"`
	Fingerprint string        `json:"fingerprint"`
	NumLabels   int           `json:"num_labels"`
	Examples    []exampleJSON `json:"examples"`
	Kernel      KernelSpec    `json:"kernel"`
	K           int           `json:"k"`
}

// persistedSession carries a session through a restart. A create record
// fills identity + request; snapshots additionally embed the executed
// history and terminal state.
type persistedSession struct {
	ID        string      `json:"id"`
	Dataset   string      `json:"dataset"`
	K         int         `json:"k"` // resolved K, not the request's 0-default
	Truth     []int       `json:"truth,omitempty"`
	ValPoints [][]float64 `json:"val_points,omitempty"`
	MaxSteps  int         `json:"max_steps,omitempty"`
	Created   time.Time   `json:"created"`

	History []CleanStep `json:"history,omitempty"` // snapshots only
	Done    bool        `json:"done,omitempty"`
	Failed  string      `json:"failed,omitempty"`
	// Final summary fields, meaningful when Done (or as the latest snapshot
	// of a running session).
	CertainFraction float64 `json:"certain_fraction,omitempty"`
	Worlds          string  `json:"worlds,omitempty"`
	Examined        int64   `json:"examined,omitempty"`
}

type stepRecord struct {
	ID   string    `json:"id"`
	Step CleanStep `json:"step"`
}

type doneRecord struct {
	ID              string  `json:"id"`
	Steps           int     `json:"steps"`
	CertainFraction float64 `json:"certain_fraction"`
	Worlds          string  `json:"worlds"`
	Examined        int64   `json:"examined"`
}

type failRecord struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

type expireRecord struct {
	ID string    `json:"id"`
	At time.Time `json:"at"`
}

type releaseRecord struct {
	ID string `json:"id"`
}

// persistedState is the snapshot payload: everything a restart needs,
// equivalent to replaying the full record stream from the beginning.
type persistedState struct {
	Datasets   []persistedDataset   `json:"datasets,omitempty"`
	Sessions   []persistedSession   `json:"sessions,omitempty"`
	Tombstones map[string]time.Time `json:"tombstones,omitempty"`
}

func datasetEntity(name string) string { return "dataset/" + name }
func sessionEntity(id string) string   { return "session/" + id }

// kernelSpecFor inverts KernelSpec.Kernel for the built-in kernels. A custom
// knn.Kernel implementation has no wire form, so datasets registered with
// one (only possible through the Go API, never HTTP) stay in-memory.
func kernelSpecFor(k knn.Kernel) (KernelSpec, bool) {
	switch kk := k.(type) {
	case knn.NegEuclidean:
		return KernelSpec{Name: "neg-euclidean"}, true
	case knn.NegSquaredEuclidean:
		return KernelSpec{Name: "neg-sq-euclidean"}, true
	case knn.NegManhattan:
		return KernelSpec{Name: "neg-manhattan"}, true
	case knn.Linear:
		return KernelSpec{Name: "linear"}, true
	case knn.Cosine:
		return KernelSpec{Name: "cosine"}, true
	case knn.RBF:
		return KernelSpec{Name: "rbf", Gamma: kk.Gamma}, true
	}
	return KernelSpec{}, false
}

// persisted serializes the registration for the journal. Its output is
// journaled and replayed, so emission order must be deterministic.
//
//cpvet:deterministic
func (d *Dataset) persisted() persistedDataset {
	examples := make([]exampleJSON, d.data.N())
	for i := range d.data.Examples {
		ex := &d.data.Examples[i]
		examples[i] = exampleJSON{Candidates: ex.Candidates, Label: ex.Label}
	}
	spec, _ := kernelSpecFor(d.kernel)
	return persistedDataset{
		Name:        d.name,
		Fingerprint: d.fingerprint,
		NumLabels:   d.data.NumLabels,
		Examples:    examples,
		Kernel:      spec,
		K:           d.k,
	}
}

// journal owns the server's durable store plus the compaction policy. nil
// journal (no DataDir) makes every hook below a no-op — today's in-memory
// behavior.
type journal struct {
	store        *durable.Store
	logf         func(format string, args ...interface{})
	segmentBytes int64 // <= 0: never rotate

	compactMu  sync.Mutex     // at most one compaction in flight
	compacting bool           // guarded by compactMu
	closing    bool           // guarded by compactMu; set once by close, never cleared
	compactWG  sync.WaitGroup // joins the in-flight compaction goroutine
}

func marshalRecord(entity, typ string, payload interface{}) (durable.Record, error) {
	b, err := json.Marshal(payload)
	if err != nil {
		return durable.Record{}, fmt.Errorf("%w: encoding %s record: %v", ErrPersist, typ, err)
	}
	return durable.Record{Entity: entity, Type: typ, Data: b}, nil
}

// appendSync journals one record with the group-commit durability class:
// it returns only once the record is fsynced. Do not call it while holding
// server/store locks — use appendWait there.
func (j *journal) appendSync(entity, typ string, payload interface{}) error {
	commit, err := j.appendWait(entity, typ, payload)
	if err != nil {
		return err
	}
	return commit()
}

// appendWait buffers one record immediately (safe — and intended — to call
// while holding the lock that guards the matching state mutation, so log
// order and snapshot consistency stay atomic) and returns the group-commit
// wait, which the caller runs after releasing its locks. A commit error
// means the record may not be durable and the store is poisoned.
func (j *journal) appendWait(entity, typ string, payload interface{}) (commit func() error, err error) {
	rec, err := marshalRecord(entity, typ, payload)
	if err != nil {
		return nil, err
	}
	wait, err := j.store.AppendWait(rec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPersist, err)
	}
	return func() error {
		if werr := wait(); werr != nil {
			return fmt.Errorf("%w: %v", ErrPersist, werr)
		}
		return nil
	}, nil
}

// append journals one record asynchronously (durable within one fsync
// window).
func (j *journal) append(entity, typ string, payload interface{}) error {
	rec, err := marshalRecord(entity, typ, payload)
	if err != nil {
		return err
	}
	if err := j.store.Append(rec); err != nil {
		return fmt.Errorf("%w: %v", ErrPersist, err)
	}
	return nil
}

// appendRaw re-journals one already-marshaled record verbatim — the
// follower's write path: what the leader persisted is what the follower
// persists, byte for byte, so a shared WAL prefix is identical on both
// sides. Async durability class; the follower's replication cursor is only
// persisted after an explicit Sync, which bounds redelivery, and every apply
// is idempotent, which makes redelivery harmless.
func (j *journal) appendRaw(rec durable.Record) error {
	if err := j.store.Append(rec); err != nil {
		return fmt.Errorf("%w: %v", ErrPersist, err)
	}
	return nil
}

// maybeCompact rotates + snapshots in the background once the active
// segment outgrows the threshold. state is the server's snapshotState.
func (j *journal) maybeCompact(state func() ([]byte, error)) {
	if j.segmentBytes <= 0 || j.store.ActiveSegmentBytes() < j.segmentBytes {
		return
	}
	j.compactMu.Lock()
	if j.compacting || j.closing {
		j.compactMu.Unlock()
		return
	}
	j.compacting = true
	// Add under compactMu, before the spawn: close() observes either
	// closing-before-Add (no new goroutine) or the Add (Wait joins it) —
	// never a goroutine it failed to count.
	j.compactWG.Add(1)
	j.compactMu.Unlock()
	go func() {
		defer j.compactWG.Done()
		defer func() {
			j.compactMu.Lock()
			j.compacting = false
			j.compactMu.Unlock()
		}()
		if err := j.store.Compact(state); err != nil {
			j.logf("serve: WAL compaction failed (will retry on further growth): %v", err)
		}
	}()
}

// close joins any in-flight compaction before closing the store, so a
// background Compact never races the store teardown (the PR-6-era leak: a
// detached compaction goroutine could touch a closed store).
func (j *journal) close() {
	j.compactMu.Lock()
	j.closing = true
	j.compactMu.Unlock()
	j.compactWG.Wait()
	if err := j.store.Close(); err != nil {
		j.logf("serve: closing WAL: %v", err)
	}
}

// --- Server-side journaling hooks (all nil-safe) ---

// noopCommit is the commit for unjournaled operations.
func noopCommit() error { return nil }

// journalRegisterStart buffers the registration record; call it with s.mu
// held, right after the map insert, and run the returned commit (the fsync
// wait) after unlocking. Commit failure means the caller must roll the
// registration back.
func (s *Server) journalRegisterStart(ds *Dataset) (commit func() error, err error) {
	if s.journal == nil || !ds.persistable {
		return noopCommit, nil
	}
	wait, err := s.journal.appendWait(datasetEntity(ds.name), "register", ds.persisted())
	if err != nil {
		return nil, err
	}
	return func() error {
		if cerr := wait(); cerr != nil {
			return cerr
		}
		s.journal.maybeCompact(s.snapshotState)
		return nil
	}, nil
}

// journalSessionCreateStart buffers the create record; call it with the
// session-store lock held, right after the insert, and run the returned
// commit after unlocking. Commit failure means the caller must roll the
// creation back.
func (s *Server) journalSessionCreateStart(sess *Session) (commit func() error, err error) {
	if s.journal == nil || !sess.ds.persistable {
		return noopCommit, nil
	}
	return s.journal.appendWait(sessionEntity(sess.id), "create", persistedSession{
		ID:        sess.id,
		Dataset:   sess.ds.name,
		K:         sess.k,
		Truth:     sess.req.Truth,
		ValPoints: sess.req.ValPoints,
		MaxSteps:  sess.maxSteps,
		Created:   sess.created,
	})
}

func (s *Server) journalSessionStep(sess *Session, step CleanStep) error {
	if s.journal == nil || !sess.ds.persistable {
		return nil
	}
	if err := s.journal.append(sessionEntity(sess.id), "step", stepRecord{ID: sess.id, Step: step}); err != nil {
		return err
	}
	s.journal.maybeCompact(s.snapshotState)
	return nil
}

// journalSessionDone is best-effort: losing a done record only means the
// restarted server re-finishes the run (identically) on its next drive.
func (s *Server) journalSessionDone(sess *Session) {
	if s.journal == nil || !sess.ds.persistable {
		return
	}
	sess.mu.Lock()
	rec := doneRecord{
		ID:              sess.id,
		Steps:           len(sess.history),
		CertainFraction: sess.snap.certainFraction,
		Worlds:          sess.snap.worlds,
		Examined:        sess.snap.examined,
	}
	sess.mu.Unlock()
	if err := s.journal.appendSync(sessionEntity(sess.id), "done", rec); err != nil {
		s.logf("serve: journaling session %s completion: %v", sess.id, err)
	}
}

// journalSessionFail is best-effort (it frequently runs because journaling
// itself failed). Caller may hold sess.mu.
func (s *Server) journalSessionFail(id, msg string) {
	if s.journal == nil {
		return
	}
	if err := s.journal.append(sessionEntity(id), "fail", failRecord{ID: id, Error: msg}); err != nil {
		s.logf("serve: journaling session %s failure: %v", id, err)
	}
}

// journalSessionExpire is best-effort: a lost expire record resurrects the
// session after restart and the TTL simply evicts it again.
func (s *Server) journalSessionExpire(sess *Session, at time.Time) {
	if s.journal == nil || !sess.ds.persistable {
		return
	}
	if err := s.journal.append(sessionEntity(sess.id), "expire", expireRecord{ID: sess.id, At: at}); err != nil {
		s.logf("serve: journaling session %s expiry: %v", sess.id, err)
	}
}

// journalSessionReleaseStart buffers the release record that keeps a
// DELETEd ID a 404 (not a resurrected session) across restarts. Call it
// before removing the session so a journal that cannot take the record
// fails the DELETE instead of silently un-deleting it at the next restart;
// run the returned commit after dropping the locks.
func (s *Server) journalSessionReleaseStart(sess *Session) (commit func() error, err error) {
	if s.journal == nil || !sess.ds.persistable {
		return noopCommit, nil
	}
	return s.journal.appendWait(sessionEntity(sess.id), "release", releaseRecord{ID: sess.id})
}

// snapshotState serializes the full server state for WAL compaction. It
// must include every record appended before the enclosing Compact sealed
// the old segment — guaranteed because each journaling site updates the
// in-memory structures before (or under the same lock as) its append.
//
//cpvet:deterministic
func (s *Server) snapshotState() ([]byte, error) {
	var ps persistedState
	s.mu.RLock()
	for _, name := range s.namesLocked() {
		ds := s.datasets[name]
		if ds.persistable {
			ps.Datasets = append(ps.Datasets, ds.persisted())
		}
	}
	s.mu.RUnlock()

	st := s.sessions
	st.mu.Lock()
	if st.stopped {
		// Server.Close empties the live map (under this lock, after setting
		// stopped); a snapshot taken now would capture that emptiness and a
		// racing compaction would then delete the segments holding the real
		// session records. Abort — Compact keeps the old segments on error.
		st.mu.Unlock()
		return nil, fmt.Errorf("serve: shutting down; snapshot aborted")
	}
	for _, id := range sortedKeys(st.live) {
		sess := st.live[id]
		if !sess.ds.persistable {
			continue
		}
		sess.mu.Lock()
		p := persistedSession{
			ID:      sess.id,
			Dataset: sess.ds.name,
			K:       sess.k,
			Created: sess.created,
			// History is append-only and its elements immutable, so the slice
			// header captured here is safe to marshal after the locks drop.
			History:         sess.history,
			Done:            sess.snap.done,
			CertainFraction: sess.snap.certainFraction,
			Worlds:          sess.snap.worlds,
			Examined:        sess.snap.examined,
		}
		if sess.failed != nil {
			p.Failed = sess.failed.Error()
		}
		if !sess.snap.done && sess.failed == nil {
			// Only a resumable session needs its request re-materialized.
			p.Truth = sess.req.Truth
			p.ValPoints = sess.req.ValPoints
			p.MaxSteps = sess.maxSteps
		}
		sess.mu.Unlock()
		ps.Sessions = append(ps.Sessions, p)
	}
	if len(st.tombstones) > 0 {
		ps.Tombstones = make(map[string]time.Time, len(st.tombstones))
		//cpvet:allow maporder -- copied map-to-map; iteration order cannot reach the JSON output
		for id, at := range st.tombstones {
			ps.Tombstones[id] = at
		}
	}
	st.mu.Unlock()
	return json.Marshal(&ps)
}

// --- Journal apply: one path for restart recovery and replication ---

// recoverFrom rebuilds the registry and session store from a freshly opened
// store. Individual unusable entries are dropped with a warning (recovery
// must not be a startup crash), and so is a step gap, which at startup means
// a mangled log; only a snapshot the server cannot decode or apply fails the
// open.
//
//cpvet:deterministic
func (s *Server) recoverFrom(st *durable.Store) error {
	if b := st.Snapshot(); b != nil {
		var ps persistedState
		if err := json.Unmarshal(b, &ps); err != nil {
			return fmt.Errorf("serve: undecodable snapshot in %s: %w", st.Dir(), err)
		}
		if err := s.applySnapshot(ps); err != nil {
			return err
		}
	}
	for _, rec := range st.Records() {
		if err := s.applyRecord(rec); err != nil {
			s.logf("serve: recovery: skipping %s record for %s: %v", rec.Type, rec.Entity, err)
		}
	}
	return nil
}

// stepGapError reports the one record applyRecord refuses: a step that skips
// ahead of its session's history. Restart recovery logs it and goes on; a
// follower's tail stops on it, because a replica that cannot prove
// continuity must fail loudly instead of serving wrong answers.
type stepGapError struct {
	id            string
	step, applied int
}

func (e *stepGapError) Error() string {
	return fmt.Sprintf("serve: session %s step %d follows %d applied steps; the journal lost records", e.id, e.step, e.applied)
}

// applyRecord folds one journal record into the server. It is idempotent —
// snapshot/WAL overlap and redelivered records change nothing — and
// tolerant: an undecodable payload, a conflicting re-registration, a session
// whose dataset is missing and an unknown record type are skipped with a
// warning (the frame's CRC was intact, so every reader of the journal skips
// them alike), and a create of a live or tombstoned ID is a no-op. Its only
// error is a *stepGapError. It takes the owning locks in the canonical order
// (Server.mu, sessionStore.mu, Session.mu).
//
//cpvet:deterministic
func (s *Server) applyRecord(rec durable.Record) error {
	skip := func(err error) error {
		s.logf("serve: journal: skipping %s record for %s: %v", rec.Type, rec.Entity, err)
		return nil
	}
	switch rec.Type {
	case "register":
		var pd persistedDataset
		if err := json.Unmarshal(rec.Data, &pd); err != nil {
			return skip(err)
		}
		if _, err := s.addDataset(pd); err != nil {
			return skip(err)
		}
	case "create":
		var ps persistedSession
		if err := json.Unmarshal(rec.Data, &ps); err != nil {
			return skip(err)
		}
		sess, err := s.buildRecoveredSession(ps)
		if err != nil {
			return skip(err)
		}
		st := s.sessions
		st.mu.Lock()
		_, exists := st.live[ps.ID]
		_, gone := st.tombstones[ps.ID]
		if !exists && !gone && !st.stopped {
			st.live[ps.ID] = sess
		}
		st.mu.Unlock()
	case "step":
		var sr stepRecord
		if err := json.Unmarshal(rec.Data, &sr); err != nil {
			return skip(err)
		}
		sess := s.lookupLive(sr.ID)
		if sess == nil {
			return nil // released/expired later in the log, or dropped above
		}
		sess.mu.Lock()
		defer sess.mu.Unlock()
		switch n := len(sess.history); {
		case sr.Step.Step <= n:
			// Overlap or redelivery; already applied.
		case sr.Step.Step == n+1:
			sess.history = append(sess.history, sr.Step)
			sess.snap.certainFraction = sr.Step.CertainFraction
			sess.snap.worlds = sr.Step.WorldsRemaining
			sess.snap.examined += sr.Step.ExaminedHypotheses
		default:
			return &stepGapError{id: sr.ID, step: sr.Step.Step, applied: n}
		}
	case "done":
		var dr doneRecord
		if err := json.Unmarshal(rec.Data, &dr); err != nil {
			return skip(err)
		}
		if sess := s.lookupLive(dr.ID); sess != nil {
			sess.mu.Lock()
			sess.snap.done = true
			sess.snap.started = true
			sess.suspended = false
			sess.snap.certainFraction = dr.CertainFraction
			sess.snap.worlds = dr.Worlds
			if dr.Examined > 0 {
				sess.snap.examined = dr.Examined
			}
			sess.req = CleanRequest{}
			sess.mu.Unlock()
		}
	case "fail":
		var fr failRecord
		if err := json.Unmarshal(rec.Data, &fr); err != nil {
			return skip(err)
		}
		if sess := s.lookupLive(fr.ID); sess != nil {
			sess.mu.Lock()
			sess.failed = fmt.Errorf("%w: %s", ErrSessionFailed, fr.Error)
			sess.snap.started = true
			sess.suspended = false
			sess.req = CleanRequest{}
			sess.mu.Unlock()
		}
	case "expire":
		var er expireRecord
		if err := json.Unmarshal(rec.Data, &er); err != nil {
			return skip(err)
		}
		at := er.At
		if at.IsZero() {
			at = time.Now() //cpvet:allow nowalltime -- legacy expire record without a timestamp; TTL-only, never replayed downstream
		}
		s.dropSession(er.ID, &at)
	case "release":
		var rr releaseRecord
		if err := json.Unmarshal(rec.Data, &rr); err != nil {
			return skip(err)
		}
		s.dropSession(rr.ID, nil)
	default:
		return skip(fmt.Errorf("unknown record type"))
	}
	return nil
}

// applySnapshot replaces the server's state with a journal snapshot. At
// restart the registry is empty, so replacing is merging. On a follower's
// bootstrap, replacing is the point: a live session absent from the
// snapshot was released or expired inside the compacted gap whose records
// will never arrive, so sessions and tombstones are swapped wholesale. The
// snapshot covers at least everything already applied, so a session on both
// sides loses no applied step. Datasets are add-only (there is no unregister
// record to miss); one the snapshot re-registers with another fingerprint
// fails the apply, and unusable datasets and sessions are dropped with a
// warning.
//
//cpvet:deterministic
func (s *Server) applySnapshot(ps persistedState) error {
	for _, pd := range ps.Datasets {
		if conflict, err := s.addDataset(pd); conflict {
			return fmt.Errorf("serve: snapshot re-registers dataset %q with a different fingerprint", pd.Name)
		} else if err != nil {
			s.logf("serve: journal: dropping dataset %q from snapshot: %v", pd.Name, err)
		}
	}
	// Build the sessions outside the store lock (construction validates the
	// request), then swap the whole live set.
	built := make(map[string]*Session, len(ps.Sessions))
	for _, p := range ps.Sessions {
		sess, err := s.buildRecoveredSession(p)
		if err != nil {
			s.logf("serve: journal: dropping session %s from snapshot: %v", p.ID, err)
			continue
		}
		built[p.ID] = sess
	}
	st := s.sessions
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stopped {
		return fmt.Errorf("%w: server is shut down", ErrUnavailable)
	}
	for _, id := range sortedKeys(st.live) {
		st.live[id].closeWhenIdle()
	}
	st.live = built
	st.tombstones = make(map[string]time.Time, len(ps.Tombstones))
	maps.Copy(st.tombstones, ps.Tombstones)
	return nil
}

// addDataset registers one journaled dataset unless its name is taken. A
// taken name with the same fingerprint is overlap and a no-op; with another
// fingerprint it is a conflict. Content that does not rebuild is an error.
func (s *Server) addDataset(pd persistedDataset) (conflict bool, err error) {
	s.mu.RLock()
	old := s.datasets[pd.Name]
	s.mu.RUnlock()
	if old != nil {
		if old.fingerprint != pd.Fingerprint {
			return true, fmt.Errorf("conflicting re-registration of dataset %q", pd.Name)
		}
		return false, nil
	}
	ds, err := buildRecoveredDataset(pd)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	if _, ok := s.datasets[pd.Name]; !ok {
		s.datasets[pd.Name] = ds
	}
	s.mu.Unlock()
	return false, nil
}

// newDataset is dataset.New for a registration from outside the process —
// a request body or a journaled record — with num_labels bounded first by
// dataset.MaxNumLabels. The register route, restart recovery and every
// follower's apply all build through it.
func newDataset(examples []dataset.Example, numLabels int) (*dataset.Incomplete, error) {
	if numLabels > dataset.MaxNumLabels(len(examples)) {
		return nil, fmt.Errorf("serve: num_labels %d exceeds max(2, %d examples)", numLabels, len(examples))
	}
	return dataset.New(examples, numLabels)
}

// buildRecoveredDataset decodes and fingerprint-verifies one journaled
// registration into a servable Dataset. Pure — no Server state is read or
// written.
//
//cpvet:deterministic
func buildRecoveredDataset(pd persistedDataset) (*Dataset, error) {
	examples := make([]dataset.Example, len(pd.Examples))
	for i, ex := range pd.Examples {
		examples[i] = dataset.Example{Candidates: ex.Candidates, Label: ex.Label}
	}
	d, err := newDataset(examples, pd.NumLabels)
	if err != nil {
		return nil, err
	}
	kernel, err := pd.Kernel.Kernel()
	if err != nil {
		return nil, err
	}
	if got := Fingerprint(d, kernel, pd.K); got != pd.Fingerprint {
		return nil, fmt.Errorf("fingerprint mismatch (journal %.12s, rebuilt %.12s)", pd.Fingerprint, got)
	}
	return &Dataset{
		name:        pd.Name,
		fingerprint: pd.Fingerprint,
		data:        d,
		kernel:      kernel,
		k:           pd.K,
		pools:       make(map[int]*enginePool),
		persistable: true,
		ready:       closedReady, // the journal is where it came from
	}, nil
}

// closedReady marks registrations that were durable before this process
// started (recovered datasets): idempotent re-registers need not wait.
var closedReady = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// buildRecoveredSession re-materializes one persisted session of a
// registered dataset in the suspended state: request + history only;
// engines and selection memos are rebuilt by the first driver (ensureBuilt),
// which re-executes the history through the selector so the continuation
// is bit-identical to an uninterrupted run. It only constructs the Session;
// the caller inserts it under the store lock.
//
//cpvet:deterministic
func (s *Server) buildRecoveredSession(ps persistedSession) (*Session, error) {
	ds, err := s.Dataset(ps.Dataset)
	if err != nil {
		return nil, err
	}
	sess := &Session{
		id:       ps.ID,
		store:    s.sessions,
		server:   s,
		ds:       ds,
		k:        ps.K,
		created:  ps.Created,
		maxSteps: ps.MaxSteps,
		lastUsed: time.Now(), //cpvet:allow nowalltime -- idle clock restarts at recovery; never persisted or replayed
		history:  ps.History,
	}
	var examined int64
	for i := range ps.History {
		examined += ps.History[i].ExaminedHypotheses
	}
	if n := len(ps.History); n > 0 {
		sess.snap.certainFraction = ps.History[n-1].CertainFraction
		sess.snap.worlds = ps.History[n-1].WorldsRemaining
	}
	sess.snap.examined = examined
	switch {
	case ps.Failed != "":
		sess.failed = fmt.Errorf("%w: %s", ErrSessionFailed, ps.Failed)
		sess.snap.started = true
	case ps.Done:
		sess.snap.done = true
		sess.snap.started = true
		sess.snap.certainFraction = ps.CertainFraction
		sess.snap.worlds = ps.Worlds
		if ps.Examined > 0 {
			sess.snap.examined = ps.Examined
		}
	default:
		sess.suspended = true
		sess.req = CleanRequest{Truth: ps.Truth, ValPoints: ps.ValPoints, K: ps.K}
		if _, err := validateCleanRequest(ds, sess.req); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// lookupLive fetches a live session without the expiry side effects of
// sessionStore.get — a journaled record must land on the session regardless
// of how long it has been idle here.
func (s *Server) lookupLive(id string) *Session {
	st := s.sessions
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.live[id]
}

// dropSession removes a session the journal expired (tombstone set) or
// released (tombstone cleared), closing it once no driver is attached.
func (s *Server) dropSession(id string, tombstone *time.Time) {
	st := s.sessions
	st.mu.Lock()
	defer st.mu.Unlock()
	if sess, ok := st.live[id]; ok {
		sess.closeWhenIdle()
		delete(st.live, id)
	}
	if tombstone != nil {
		st.tombstones[id] = *tombstone
	} else {
		delete(st.tombstones, id)
	}
}
