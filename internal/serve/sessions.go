package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// tombstoneTTL is how long an expired session's ID keeps answering ErrGone
// (HTTP 410) before the store forgets it entirely (404). Deliberately much
// longer than any reasonable idle TTL so a returning client gets the
// truthful "expired" answer instead of a confusing "never existed".
const tombstoneTTL = time.Hour

// sessionStore owns every live clean session of one Server: creation under
// the capacity cap, ID lookup, idle-TTL eviction (lazily on access plus a
// background reaper), and tombstones that distinguish "expired" from "never
// existed". All methods are safe for concurrent use. Lock ordering is
// store.mu before Session.mu, never the reverse.
type sessionStore struct {
	max int           // live-session cap; < 0 = unlimited
	ttl time.Duration // idle eviction; < 0 = never

	mu         sync.Mutex
	live       map[string]*Session  // guarded by mu
	tombstones map[string]time.Time // expired ID → eviction time; guarded by mu
	stopped    bool                 // guarded by mu

	reaperOnce sync.Once
	stopReaper chan struct{}
}

func newSessionStore(max int, ttl time.Duration) *sessionStore {
	return &sessionStore{
		max:        max,
		ttl:        ttl,
		live:       make(map[string]*Session),
		tombstones: make(map[string]time.Time),
		stopReaper: make(chan struct{}),
	}
}

// Session is one addressable CPClean run whose lifetime is decoupled from
// any HTTP connection: it is created by POST /clean, driven by /next or
// /stream (one driver at a time — a second concurrent driver gets ErrBusy),
// survives client disconnects, and dies only by DELETE, idle-TTL eviction,
// or server shutdown.
//
// The underlying CleanSession is built lazily by the first driver, so
// creation returns immediately and validation errors still surface at
// creation time (validateCleanRequest runs up front).
//
// Every executed step is recorded in an append-only history, which is what
// makes disconnects harmless: a client that lost the stream after step k
// reconnects with /stream?from=k (or reads Status().Steps) and replays
// exactly the steps it missed before the session continues live.
type Session struct {
	id      string
	store   *sessionStore
	server  *Server
	ds      *Dataset
	k       int
	req     CleanRequest
	created time.Time

	mu             sync.Mutex
	lastUsed       time.Time // guarded by mu
	driving        bool      // guarded by mu
	closed         bool      // guarded by mu
	closeOnRelease bool      // guarded by mu
	// suspended marks a session re-materialized from the durable journal
	// after a restart: it holds only its request and executed-step history.
	// The first driver rebuilds the engines and re-executes the history
	// through the selection engine (verifying each step against the
	// journal), after which the run continues bit-identically to one that
	// was never interrupted.
	suspended bool
	failed    error
	clean     *CleanSession // nil until the first driver builds it
	history   []CleanStep   // every executed step, in order
	snap      sessionSnap
	// queries is the session's batch-query state: per-point engines pinned
	// to the executed step history, each with a Q2 memo of its pin state
	// (see squery.go). Built on first Query; dropped on close.
	queries *sessionQueryCache
}

// sessionSnap caches the summary fields a driver refreshes after every step
// so Status never has to touch the (single-goroutine) CleanSession.
type sessionSnap struct {
	started         bool
	done            bool
	steps           int
	certainFraction float64
	worlds          string
	examined        int64
}

// SessionStatus is the wire-visible state of a clean session.
type SessionStatus struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	// State is pending (created, no step yet), running, suspended
	// (re-materialized from the durable journal after a restart; the next
	// driver rebuilds its engines and continues), done, or failed.
	State string `json:"state"`
	// Busy reports whether a driver (/next or /stream) is attached right now.
	Busy bool `json:"busy"`
	// Steps is the number of executed cleaning steps; replay any of them via
	// GET /v1/clean/{id}/stream?from=N.
	Steps              int     `json:"steps"`
	CertainFraction    float64 `json:"certain_fraction"`
	WorldsRemaining    string  `json:"worlds_remaining,omitempty"`
	ExaminedHypotheses int64   `json:"examined_hypotheses"`
	Error              string  `json:"error,omitempty"`
	CreatedAt          string  `json:"created_at"`
	LastUsedAt         string  `json:"last_used_at"`
	// QueryMemo reports the session's batch-query memo counters (present
	// once the session has been queried via POST /v1/clean/{id}/query).
	QueryMemo *SessionQueryStats `json:"query_memo,omitempty"`
}

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return "cs_" + hex.EncodeToString(b[:])
}

// StartCleanSession validates the request, reserves a session slot under the
// MaxCleanSessions cap, and returns the addressable session immediately —
// the expensive engine construction is deferred to the first driver.
func (s *Server) StartCleanSession(name string, req CleanRequest) (*Session, error) {
	if err := s.availErr(); err != nil {
		return nil, err
	}
	if err := s.writeGate(); err != nil {
		return nil, err
	}
	ds, err := s.Dataset(name)
	if err != nil {
		return nil, err
	}
	k, err := validateCleanRequest(ds, req)
	if err != nil {
		return nil, err
	}
	// Deep-copy the request: the engines are built lazily by the first
	// driver, possibly long after this call returns, so the session must not
	// alias caller slices the caller may reuse in the meantime.
	req.Truth = append([]int(nil), req.Truth...)
	pts := make([][]float64, len(req.ValPoints))
	for i, p := range req.ValPoints {
		pts[i] = append([]float64(nil), p...)
	}
	req.ValPoints = pts
	return s.sessions.create(s, ds, k, req)
}

// FindCleanSession resolves a session ID: ErrNotFound for unknown IDs,
// ErrGone for expired ones. A session idle past the TTL expires on lookup
// even if the reaper has not fired yet.
func (s *Server) FindCleanSession(id string) (*Session, error) {
	return s.sessions.get(id)
}

// ReleaseCleanSession deletes a session and returns its resources. Deleting
// a session that currently has a driver attached fails with ErrBusy;
// a deleted ID subsequently answers ErrNotFound (deliberate release, unlike
// expiry's ErrGone).
func (s *Server) ReleaseCleanSession(id string) error {
	// On a follower the release must happen on the leader and arrive as a
	// replicated record, or the two would disagree about the ID's fate.
	if err := s.writeGate(); err != nil {
		return err
	}
	return s.sessions.release(id)
}

// CleanSessionCount reports the number of live sessions.
func (s *Server) CleanSessionCount() int {
	s.sessions.mu.Lock()
	defer s.sessions.mu.Unlock()
	return len(s.sessions.live)
}

func (st *sessionStore) create(srv *Server, ds *Dataset, k int, req CleanRequest) (*Session, error) {
	now := time.Now()
	st.mu.Lock()
	if st.stopped {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: server is shut down", ErrUnavailable)
	}
	if st.max >= 0 && len(st.live) >= st.max {
		// Sweep before refusing: slots held by sessions already past the idle
		// TTL are reclaimable right now — a new run must not get a spurious
		// 429 just because neither a lookup nor the reaper tick has evicted
		// them yet.
		for _, old := range st.live {
			st.expireLocked(old, now)
		}
	}
	if st.max >= 0 && len(st.live) >= st.max {
		n := len(st.live)
		st.mu.Unlock()
		return nil, fmt.Errorf("%w (%d live)", ErrCapacity, n)
	}
	sess := &Session{
		id:       newSessionID(),
		store:    st,
		server:   srv,
		ds:       ds,
		k:        k,
		req:      req,
		created:  now,
		lastUsed: now,
	}
	st.live[sess.id] = sess
	// Buffer the create record under st.mu so a concurrent WAL compaction
	// can never snapshot a store state whose records the log is missing; the
	// fsync wait (commit) happens after unlock so creations don't stall
	// every session lookup for a group-commit window. The 201 the client
	// receives is durable once commit returns.
	commit, err := srv.journalSessionCreateStart(sess)
	if err != nil {
		delete(st.live, sess.id)
		st.mu.Unlock()
		return nil, err
	}
	if st.ttl > 0 {
		st.reaperOnce.Do(func() { go st.reaperLoop() })
	}
	st.mu.Unlock()
	if err := commit(); err != nil {
		// The record may not be durable (poisoned store): roll the creation
		// back. A driver can only have attached in this window if it raced
		// the failed create's caller, so closeOnRelease covers it.
		st.mu.Lock()
		if cur, ok := st.live[sess.id]; ok && cur == sess {
			sess.closeWhenIdle()
			delete(st.live, sess.id)
		}
		st.mu.Unlock()
		return nil, err
	}
	return sess, nil
}

// maybeStartReaper starts the TTL reaper if recovery re-materialized
// sessions (create starts it lazily otherwise, but recovered sessions may
// never see another create).
func (st *sessionStore) maybeStartReaper() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ttl > 0 && len(st.live) > 0 && !st.stopped {
		st.reaperOnce.Do(func() { go st.reaperLoop() })
	}
}

func (st *sessionStore) get(id string) (*Session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sess, ok := st.live[id]
	if !ok {
		if _, gone := st.tombstones[id]; gone {
			return nil, fmt.Errorf("%w: clean session %q", ErrGone, id)
		}
		return nil, fmt.Errorf("%w: unknown clean session %q", ErrNotFound, id)
	}
	if st.expireLocked(sess, time.Now()) {
		return nil, fmt.Errorf("%w: clean session %q", ErrGone, id)
	}
	return sess, nil
}

func (st *sessionStore) release(id string) error {
	st.mu.Lock()
	sess, ok := st.live[id]
	if !ok {
		_, gone := st.tombstones[id]
		st.mu.Unlock()
		if gone {
			return fmt.Errorf("%w: clean session %q", ErrGone, id)
		}
		return fmt.Errorf("%w: unknown clean session %q", ErrNotFound, id)
	}
	sess.mu.Lock()
	if sess.driving {
		sess.mu.Unlock()
		st.mu.Unlock()
		return fmt.Errorf("%w: session %q has a driver attached", ErrBusy, id)
	}
	// Buffer the release record — what keeps a deliberate DELETE a 404 (not
	// a resurrected session) after a restart — before touching anything, so
	// a journal that cannot take it fails the DELETE with the session intact
	// instead of acknowledging a deletion the next restart undoes.
	commit, err := sess.server.journalSessionReleaseStart(sess)
	if err != nil {
		sess.mu.Unlock()
		st.mu.Unlock()
		return err
	}
	sess.closeLocked()
	sess.mu.Unlock()
	delete(st.live, id)
	st.mu.Unlock()
	// A commit (fsync) failure poisons the store: report it — the in-memory
	// delete stands, a retried DELETE answers 404, and every later durable
	// operation fails loudly, so the operator knows durability is gone.
	return commit()
}

// expireLocked evicts sess if it has been idle past the TTL. Caller holds
// store.mu; a session with a driver attached is in use, never idle.
func (st *sessionStore) expireLocked(sess *Session, now time.Time) bool {
	if st.ttl < 0 {
		return false
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.driving || now.Sub(sess.lastUsed) <= st.ttl {
		return false
	}
	sess.closeLocked()
	delete(st.live, sess.id)
	st.tombstones[sess.id] = now
	// Journaling the tombstone keeps the expired ID answering 410 (not a
	// resurrected session) after a restart.
	sess.server.journalSessionExpire(sess, now)
	return true
}

// reaperLoop evicts idle sessions in the background so abandoned runs
// release their engines even if nobody ever touches their IDs again, and
// ages out old tombstones. Started lazily with the first session; stopped
// by close.
func (st *sessionStore) reaperLoop() {
	interval := st.ttl / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-st.stopReaper:
			return
		case <-ticker.C:
			st.reap()
		}
	}
}

func (st *sessionStore) reap() {
	now := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stopped {
		return
	}
	for _, sess := range st.live {
		st.expireLocked(sess, now)
	}
	for id, t := range st.tombstones {
		if now.Sub(t) > tombstoneTTL {
			delete(st.tombstones, id)
		}
	}
}

func (st *sessionStore) close() {
	st.mu.Lock()
	if st.stopped {
		st.mu.Unlock()
		return
	}
	st.stopped = true
	// Stop a reaper if one was ever started; starting one later is prevented
	// by the stopped flag in create.
	st.reaperOnce.Do(func() {})
	close(st.stopReaper)
	live := make([]*Session, 0, len(st.live))
	for _, sess := range st.live {
		live = append(live, sess)
	}
	st.live = make(map[string]*Session)
	st.mu.Unlock()
	for _, sess := range live {
		sess.closeWhenIdle()
	}
}

// ID returns the session's addressable identifier.
func (sess *Session) ID() string { return sess.id }

// closeWhenIdle closes the session now, or, while a driver is attached (an
// in-flight driver or replaying /stream reader still holds the
// CleanSession, and closing under it would race), marks it so
// releaseDriver finishes the close.
func (sess *Session) closeWhenIdle() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.driving {
		sess.closeOnRelease = true
	} else {
		sess.closeLocked()
	}
}

// closeLocked releases the underlying CleanSession. Caller holds sess.mu
// and must guarantee no driver is attached.
func (sess *Session) closeLocked() {
	if sess.closed {
		return
	}
	sess.closed = true
	if sess.clean != nil {
		sess.clean.Close()
		sess.clean = nil
	}
	// The query cache holds per-point engines + Q2 memos — the bulk of
	// a queried session's footprint.
	sess.queries = nil
}

// acquire claims the session's single driver slot. A failed session still
// grants the slot — its history must stay replayable; only live stepping is
// off the table (drive checks failed before stepping).
func (sess *Session) acquire() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return fmt.Errorf("%w: clean session %q", ErrGone, sess.id)
	}
	if sess.driving {
		return fmt.Errorf("%w: session %q already has a driver", ErrBusy, sess.id)
	}
	sess.driving = true
	sess.lastUsed = time.Now()
	return nil
}

func (sess *Session) releaseDriver() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.driving = false
	sess.lastUsed = time.Now()
	if sess.closeOnRelease {
		sess.closeLocked()
	}
}

// ensureBuilt constructs the CleanSession on first drive. Runs outside
// sess.mu (construction is expensive) but inside the driver slot, so no
// other goroutine can observe a half-built session.
//
// For a suspended session (re-materialized from the journal after a
// restart) it additionally re-executes the journaled step history through
// the freshly built selection engine, verifying each re-executed step —
// row, candidate, examined_hypotheses — against the journal. Because the
// step function is deterministic, this leaves the engines, pins, and
// selector memos in exactly the state an uninterrupted run would have, so
// every remaining step is bit-identical; a divergence means the data
// directory does not match the process (or a determinism bug) and fails the
// session rather than silently continuing from inconsistent state.
func (sess *Session) ensureBuilt() (*CleanSession, error) {
	sess.mu.Lock()
	c := sess.clean
	started := sess.snap.started
	suspended := sess.suspended
	// history is append-only and this goroutine holds the only driver slot.
	prefix := sess.history
	sess.mu.Unlock()
	if c != nil {
		return c, nil
	}
	if started && !suspended {
		// Built once and released since — done and failed sessions drop their
		// CleanSession, and drive returns before reaching here for both.
		return nil, fmt.Errorf("serve: internal: clean session %q has no live engine state", sess.id)
	}
	c, err := sess.server.buildCleanSession(sess.ds, sess.k, sess.req)
	if err != nil {
		// The request already passed validation, so a build failure is a
		// server-side fault — same 500 contract as a step failure.
		return nil, sess.setFailed(err)
	}
	if suspended {
		for i := range prefix {
			want := &prefix[i]
			step, ok, err := c.Step()
			if err != nil {
				c.Close()
				return nil, sess.setFailed(fmt.Errorf("replaying journaled step %d: %w", i+1, err))
			}
			if !ok {
				c.Close()
				return nil, sess.setFailed(fmt.Errorf(
					"journal has %d steps but the rebuilt run finished after %d", len(prefix), i))
			}
			if step.Row != want.Row || step.Candidate != want.Candidate ||
				step.ExaminedHypotheses != want.ExaminedHypotheses {
				c.Close()
				return nil, sess.setFailed(fmt.Errorf(
					"recovery diverged from the journal at step %d: re-executed (row %d, candidate %d, examined %d), journal has (row %d, candidate %d, examined %d)",
					i+1, step.Row, step.Candidate, step.ExaminedHypotheses,
					want.Row, want.Candidate, want.ExaminedHypotheses))
			}
		}
	}
	sess.mu.Lock()
	sess.clean = c
	sess.suspended = false
	sess.snap.started = true
	sess.snap.steps = c.Steps()
	sess.snap.certainFraction = c.CertainFraction()
	sess.snap.worlds = c.WorldsRemaining().String()
	sess.snap.examined = c.ExaminedHypotheses()
	if sess.server.journal == nil || !sess.ds.persistable {
		// The request was only ever needed for this build; drop the copied
		// Truth/ValPoints so a finished session really does hold just history
		// + snapshot. A journaled session keeps them: WAL compaction snapshots
		// must be able to re-materialize the run after the next restart.
		sess.req = CleanRequest{}
	}
	sess.mu.Unlock()
	return c, nil
}

// record appends an executed step to the history and refreshes the status
// snapshot.
func (sess *Session) record(c *CleanSession, step CleanStep) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.history = append(sess.history, step)
	sess.snap.steps = c.Steps()
	sess.snap.certainFraction = step.CertainFraction
	sess.snap.worlds = step.WorldsRemaining
	sess.snap.examined = c.ExaminedHypotheses()
	sess.lastUsed = time.Now()
}

// markDone finalizes the snapshot and releases the underlying CleanSession
// immediately: replay and the summary need only history + snap, so a
// finished run must not pin its engines and selection memos until DELETE or
// the idle TTL.
func (sess *Session) markDone(c *CleanSession) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.snap.done = true
	sess.snap.steps = c.Steps()
	sess.snap.certainFraction = c.CertainFraction()
	sess.snap.worlds = c.WorldsRemaining().String()
	sess.snap.examined = c.ExaminedHypotheses()
	sess.req = CleanRequest{} // a finished run is never re-materialized
	c.Close()
	sess.clean = nil
}

// setFailed records a server-side step/build error and releases the
// CleanSession (it is in an indeterminate state and will never step again);
// the history stays replayable. Returns the ErrSessionFailed-wrapped error
// so the failing driver reports the same 500 every later driver will see.
func (sess *Session) setFailed(err error) error {
	sess.mu.Lock()
	sess.failed = fmt.Errorf("%w: %v", ErrSessionFailed, err)
	sess.suspended = false
	sess.req = CleanRequest{}
	if sess.clean != nil {
		sess.clean.Close()
		sess.clean = nil
	}
	failed := sess.failed
	sess.mu.Unlock()
	// Best-effort: when journaling itself is what failed this only logs.
	sess.server.journalSessionFail(sess.id, err.Error())
	return failed
}

// DriveFrom attaches as the session's driver (ErrBusy if one is attached),
// replays history starting after step `from` (0 replays everything;
// len(history) replays nothing), then keeps executing live steps. Each step
// — replayed or fresh — is handed to fn; fn returning false detaches
// without consuming the session (every executed step is already in the
// history, so nothing is lost to a broken pipe). done reports whether the
// run has fully finished.
func (sess *Session) DriveFrom(from int, fn func(CleanStep) bool) (done bool, err error) {
	if from < 0 {
		return false, fmt.Errorf("serve: from=%d must be non-negative", from)
	}
	return sess.drive(from, fn)
}

// drive is DriveFrom with from == -1 meaning "no replay, live steps only" —
// the replay origin is resolved while holding the driver slot, so a Next
// racing another driver can never re-deliver steps that driver executed.
func (sess *Session) drive(from int, fn func(CleanStep) bool) (done bool, err error) {
	if err := sess.acquire(); err != nil {
		return false, err
	}
	defer sess.releaseDriver()
	sess.mu.Lock()
	n := len(sess.history)
	isDone := sess.snap.done
	failed := sess.failed
	sess.mu.Unlock()
	if from < 0 {
		from = n
	}
	if from > n {
		return false, fmt.Errorf("serve: from=%d out of range, session has %d executed steps", from, n)
	}
	// Replay needs only the history — it works on done and even failed
	// sessions (a client whose stream dropped before a server-side step
	// error must still be able to fetch the steps that did execute). The
	// history is append-only and this goroutine holds the only driver slot,
	// so indexing it without sess.mu is safe.
	for i := from; i < n; i++ {
		if !fn(sess.history[i]) {
			return false, nil
		}
	}
	if isDone {
		return true, nil
	}
	if failed != nil {
		return false, failed
	}
	// Live steps mutate the session — follower reads stop here: history
	// replay above (and done/failed summaries) served fine, but stepping
	// belongs to the leader, whose journal feeds this replica.
	if err := sess.server.writeGate(); err != nil {
		return false, err
	}
	c, err := sess.ensureBuilt()
	if err != nil {
		return false, err
	}
	for {
		step, ok, err := c.Step()
		if err != nil {
			return false, sess.setFailed(err)
		}
		if !ok {
			sess.markDone(c)
			sess.server.journalSessionDone(sess)
			return true, nil
		}
		sess.record(c, step)
		// Journaled asynchronously (group commit): a crash can lose the
		// freshest steps, and recovery re-executes them identically. A WAL
		// that cannot accept the record at all fails the session — continuing
		// would silently break the durability contract.
		if jerr := sess.server.journalSessionStep(sess, step); jerr != nil {
			return false, sess.setFailed(jerr)
		}
		if !fn(step) {
			return false, nil
		}
	}
}

// Next executes up to n fresh cleaning steps (never replaying history) and
// returns them; done reports whether the session finished. This is the
// resumable pull interface: after a dropped stream, Status().Steps says how
// far the run got, /stream?from=K replays what was missed, and Next
// continues the run.
func (sess *Session) Next(n int) (steps []CleanStep, done bool, err error) {
	if n <= 0 {
		n = 1
	}
	done, err = sess.drive(-1, func(step CleanStep) bool {
		steps = append(steps, step)
		return len(steps) < n
	})
	return steps, done, err
}

// Status snapshots the session without touching the underlying CleanSession,
// so it is safe (and cheap) while a driver is mid-step.
func (sess *Session) Status() SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := SessionStatus{
		ID:                 sess.id,
		Dataset:            sess.ds.Name(),
		Busy:               sess.driving,
		Steps:              sess.snap.steps,
		CertainFraction:    sess.snap.certainFraction,
		WorldsRemaining:    sess.snap.worlds,
		ExaminedHypotheses: sess.snap.examined,
		CreatedAt:          sess.created.UTC().Format(time.RFC3339Nano),
		LastUsedAt:         sess.lastUsed.UTC().Format(time.RFC3339Nano),
	}
	if sess.queries != nil {
		qs := sess.queries.statsSnapshot() // atomic counters; no extra locks
		st.QueryMemo = &qs
	}
	switch {
	case sess.failed != nil:
		st.State = "failed"
		st.Error = sess.failed.Error()
	case sess.snap.done:
		st.State = "done"
	case sess.suspended:
		st.State = "suspended"
	case !sess.snap.started:
		st.State = "pending"
	default:
		st.State = "running"
	}
	return st
}
