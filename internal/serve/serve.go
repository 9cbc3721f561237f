package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/knn"
	"repro/internal/replica"
)

// ErrConflict marks a registration rejected because the name is taken by a
// dataset with a different fingerprint.
var ErrConflict = errors.New("serve: conflict")

// ErrNotFound marks a lookup of an unregistered dataset name or an unknown
// clean-session ID. The HTTP layer maps it to 404 so callers can tell "no
// such resource" apart from a bad request.
var ErrNotFound = errors.New("serve: not found")

// ErrGone marks a lookup of a clean session that existed but was evicted by
// the idle-TTL reaper. The HTTP layer maps it to 410 so clients can tell
// "your session expired, restart the run" apart from a mistyped ID (404).
var ErrGone = errors.New("serve: session expired")

// ErrBusy marks an attempt to drive a clean session that already has a
// driver attached (a concurrent /next or /stream). Sessions admit exactly
// one driver at a time; the HTTP layer maps this to 409.
var ErrBusy = errors.New("serve: session busy")

// ErrCapacity marks a session creation rejected because MaxCleanSessions
// live sessions already exist. The HTTP layer maps it to 429.
var ErrCapacity = errors.New("serve: session capacity reached")

// ErrSessionFailed wraps a server-side step error stored on a clean session:
// the run cannot continue, but its executed-step history stays replayable.
// The HTTP layer maps it to 500 — the client did nothing wrong.
var ErrSessionFailed = errors.New("serve: session failed")

// ErrUnavailable marks a request that reached the server outside its serving
// window: while it is still replaying its data directory at startup, or
// after Close. The HTTP layer maps it to 503 — retry, don't fix the request.
var ErrUnavailable = errors.New("serve: temporarily unavailable")

// ErrPersist marks a write the durable journal could not confirm. The
// operation is rolled back in memory and reported failed; note that a
// failed fsync cannot prove the record's absence from disk, so after a
// crash the rolled-back change may still replay. The log poisons itself on
// the first such failure — every later durable operation fails loudly — so
// this is a degraded-durability signal for the operator, not a state the
// server keeps running through silently. The HTTP layer maps it to 500.
var ErrPersist = errors.New("serve: persistence failure")

// ErrNotLeader marks a state-changing request (registration, session
// creation, stepping, release) sent to a read-only follower. The HTTP layer
// maps it to 421 Misdirected Request with the leader's URL in the Leader
// response header — retry the same request there.
var ErrNotLeader = errors.New("serve: not the leader")

// Config tunes the server.
type Config struct {
	// Parallelism bounds worker goroutines per batch request (0 = GOMAXPROCS).
	Parallelism int
	// EngineCacheSize is the per-(dataset, K) LRU capacity for test-point
	// engines (0 = DefaultEngineCacheSize, negative = disable caching).
	EngineCacheSize int
	// MaxEngineBytes is the approximate heap budget of each per-(dataset, K)
	// engine LRU (and of each session's query cache), byte-counted rather
	// than entry-counted, so many large engines cannot blow the heap
	// (0 = DefaultMaxEngineBytes, negative = unlimited). The most recently
	// used entry is always kept, so a single over-budget engine degrades to
	// cache-of-one instead of thrashing.
	MaxEngineBytes int64
	// DisableQueryMemo turns off the Q2 memo (core.Retained) of session queries:
	// every session-query Q2 runs a full SS-DC sweep — the pre-incremental
	// behavior, kept as the benchmark/ablation baseline
	// (BenchmarkBatchQ2_FullSweep). It also bypasses the result cache for
	// dataset and session queries alike, so the ablation's sweep counters
	// stay comparable. Dataset queries always sweep their unpinned engines.
	DisableQueryMemo bool
	// ResultCacheBytes enables the server-wide query result cache with this
	// approximate byte budget: finished PointResults are kept by (dataset
	// fingerprint, session, K, accumulator mode, pin generation, test point),
	// so a repeated batch or session query is answered without touching an
	// engine at all. Unlike the other knobs, 0 does not mean "default" — it
	// (and any negative value) disables the cache. The cache is opt-in
	// because a hit skips the engine and session-memo layers entirely, changing which
	// /v1/stats counters a repeated query advances.
	ResultCacheBytes int64
	// MaxCleanSessions caps concurrently live clean sessions
	// (0 = DefaultMaxCleanSessions, negative = unlimited). Creation beyond
	// the cap fails with ErrCapacity (HTTP 429).
	MaxCleanSessions int
	// SessionTTL evicts clean sessions idle longer than this
	// (0 = DefaultSessionTTL, negative = never expire). Expired sessions
	// answer ErrGone (HTTP 410) until their tombstone ages out.
	SessionTTL time.Duration
	// MaxRegisterBytes caps the dataset-registration request body
	// (0 = DefaultMaxRegisterBytes, negative = unlimited). Oversized bodies
	// get HTTP 413.
	MaxRegisterBytes int64
	// MaxQueryBytes caps query and clean-start request bodies
	// (0 = DefaultMaxQueryBytes, negative = unlimited).
	MaxQueryBytes int64
	// DataDir enables crash-safe persistence: dataset registrations and
	// every clean-session event are journaled to an append-only WAL (plus
	// periodic snapshots) under this directory and replayed by Open after a
	// restart. Empty = purely in-memory, exactly the pre-durability
	// behavior. Run one server process per data directory.
	DataDir string
	// WALSegmentBytes rotates and compacts the WAL (sealing the segment,
	// snapshotting full state, deleting superseded files) once the active
	// segment exceeds this size (0 = DefaultWALSegmentBytes, negative =
	// never compact).
	WALSegmentBytes int64
	// WALSyncInterval is the group-commit window: acknowledged writes are
	// fsynced at least this often, and many writers share each fsync
	// (0 = durable.DefaultSyncInterval, negative = fsync on every append).
	WALSyncInterval time.Duration
	// FollowURL turns the server into a read-only replica of the leader at
	// this base URL: it tails the leader's WAL ship stream
	// (GET /v1/wal/stream), applies every journaled record through the same
	// code path recovery uses, re-journals it into its own DataDir (required
	// in this mode), and serves batch/entropy queries and session reads from
	// the replicated state. Writes are rejected with ErrNotLeader (HTTP 421
	// + Leader header). SessionTTL is forced to "never" on a follower:
	// expiry arrives only as replicated expire records, so leader and
	// follower evict identically.
	FollowURL string
	// AdvertiseURL is the leader's client-facing base URL, echoed to
	// followers on the ship stream (and from them to misdirected writers).
	AdvertiseURL string
	// Logf receives recovery and background-maintenance warnings
	// (nil = log.Printf).
	Logf func(format string, args ...interface{})

	// streams points at the owning Server's runOrdered counters. Set by Open;
	// the pointer rides along with every Config copy the request paths make,
	// and is nil (counters off) for a Config built by hand in tests.
	streams *streamCounters
	// results points at the owning Server's result cache (nil when
	// ResultCacheBytes leaves it disabled). Set by Open, same pattern as
	// streams: the pointer rides along with every Config copy.
	results *resultCache
}

// DefaultEngineCacheSize is the engine LRU capacity used when
// Config.EngineCacheSize is zero.
const DefaultEngineCacheSize = 256

// DefaultMaxEngineBytes is the per-(dataset, K) engine-cache byte budget
// used when Config.MaxEngineBytes is zero.
const DefaultMaxEngineBytes = 1 << 30

// Defaults for the session store and HTTP body caps (used when the
// corresponding Config field is zero).
const (
	DefaultMaxCleanSessions = 64
	DefaultSessionTTL       = 15 * time.Minute
	DefaultMaxRegisterBytes = 32 << 20 // datasets are the big payload
	DefaultMaxQueryBytes    = 8 << 20  // points/truth are much smaller
)

// DefaultWALSegmentBytes is the WAL rotation/compaction threshold used when
// Config.WALSegmentBytes is zero.
const DefaultWALSegmentBytes = 8 << 20

func (c Config) withDefaults() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	// Negative sentinels (disable / unlimited) are preserved, not collapsed
	// to zero: withDefaults is applied both at Open and again on the request
	// paths (Dataset.BatchQuery takes a caller Config), so it must be
	// idempotent — collapsing −1 to 0 here would turn "disabled" back into
	// the default on the second application.
	if c.EngineCacheSize == 0 {
		c.EngineCacheSize = DefaultEngineCacheSize
	}
	if c.MaxEngineBytes == 0 {
		c.MaxEngineBytes = DefaultMaxEngineBytes
	}
	if c.MaxCleanSessions == 0 {
		c.MaxCleanSessions = DefaultMaxCleanSessions
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = DefaultSessionTTL
	}
	if c.MaxRegisterBytes == 0 {
		c.MaxRegisterBytes = DefaultMaxRegisterBytes
	}
	if c.MaxQueryBytes == 0 {
		c.MaxQueryBytes = DefaultMaxQueryBytes
	}
	if c.WALSegmentBytes == 0 {
		c.WALSegmentBytes = DefaultWALSegmentBytes
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server lifecycle states (Server.state). A closed server answers every
// request with ErrUnavailable (HTTP 503); cpserve additionally serves 503
// at the listener while Open is still replaying the data directory, before
// any *Server exists to ask.
const (
	stateReady int32 = iota
	stateClosed
)

// Server is a registry of datasets plus the query machinery over them. All
// methods are safe for concurrent use.
type Server struct {
	cfg  Config
	logf func(format string, args ...interface{})

	mu       sync.RWMutex
	datasets map[string]*Dataset // guarded by mu

	sessions *sessionStore

	journal *journal // nil when Config.DataDir is empty
	state   atomic.Int32

	// results is the opt-in server-wide query result cache (nil when
	// Config.ResultCacheBytes leaves it disabled).
	results *resultCache

	// streams aggregates runOrdered's fan-out counters across every batch
	// query (dataset- and session-level) this server answers.
	streams streamCounters

	// Replication roles (both nil on an in-memory server): shipper serves
	// this WAL to followers; tailer makes this server a follower of
	// Config.FollowURL.
	shipper *replica.Shipper
	tailer  *replica.Tailer
	// cursorPath is the follower's persisted-cursor file; lastSaved is the
	// last cursor written there. Both are touched only by Open/Close and the
	// tailer's single OnAdvance goroutine.
	cursorPath string
	lastSaved  durable.Cursor
}

// NewServer builds an empty in-memory server: Config.DataDir and
// Config.FollowURL are ignored and nothing survives the process. Use Open
// for a durable server or a follower.
func NewServer(cfg Config) *Server {
	cfg.DataDir = ""
	cfg.FollowURL = ""
	s, err := Open(cfg)
	if err != nil {
		// Open without a data directory touches no I/O and cannot fail.
		panic(err)
	}
	return s
}

// Open builds a server and, when cfg.DataDir is set, recovers it from the
// directory's snapshot + WAL before marking it ready: registered datasets
// come back verbatim (fingerprint-verified), unfinished clean sessions come
// back suspended — request and executed-step history only; their engines
// are rebuilt by the first driver — and expiry tombstones and releases are
// honored, so session IDs keep answering 410/404 truthfully across the
// restart. A torn WAL tail (crash mid-write) is truncated with a warning,
// never a startup failure.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	follower := cfg.FollowURL != ""
	if follower {
		if cfg.DataDir == "" {
			return nil, fmt.Errorf("serve: follower mode (FollowURL) requires a DataDir to journal replicated records")
		}
		// Expiry must arrive only as replicated expire records; a follower
		// running its own idle clock would evict sessions the leader still
		// has, and the two would answer session lookups differently.
		cfg.SessionTTL = -1
	}
	s := &Server{
		cfg:      cfg,
		logf:     cfg.Logf,
		datasets: make(map[string]*Dataset),
		sessions: newSessionStore(cfg.MaxCleanSessions, cfg.SessionTTL),
	}
	s.cfg.streams = &s.streams
	if cfg.ResultCacheBytes > 0 {
		s.results = newResultCache(cfg.ResultCacheBytes)
		s.cfg.results = s.results
	}
	if cfg.DataDir == "" {
		s.state.Store(stateReady)
		return s, nil
	}
	st, err := durable.Open(cfg.DataDir, durable.Options{
		SyncInterval: cfg.WALSyncInterval,
		Logf:         cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	if err := s.recoverFrom(st); err != nil {
		st.Close()
		return nil, err
	}
	// The recovered snapshot/record buffers are folded into the registry and
	// session store now; drop them instead of pinning them for the process
	// lifetime.
	st.ReleaseRecovered()
	s.journal = &journal{store: st, logf: cfg.Logf, segmentBytes: cfg.WALSegmentBytes}
	if follower {
		// Resume tailing from the persisted cursor: everything before it was
		// applied AND re-journaled locally (the local replay above already
		// rebuilt that state), so the leader only re-ships what is missing.
		s.cursorPath = filepath.Join(cfg.DataDir, replica.CursorFileName)
		cursor, _, err := replica.LoadCursor(s.cursorPath)
		if err != nil {
			st.Close()
			return nil, err
		}
		s.lastSaved = cursor
		s.state.Store(stateReady)
		s.tailer = replica.StartTailer(replica.TailerConfig{
			BaseURL:       cfg.FollowURL,
			Apply:         s.applyShipped,
			ApplySnapshot: s.bootstrapFromLeader,
			OnAdvance:     s.noteApplied,
			Logf:          cfg.Logf,
		}, cursor)
		return s, nil
	}
	s.shipper = &replica.Shipper{Store: st, Advertise: cfg.AdvertiseURL, Logf: cfg.Logf}
	s.sessions.maybeStartReaper()
	s.state.Store(stateReady)
	return s, nil
}

// availErr reports why the server cannot serve right now (nil when it can).
func (s *Server) availErr() error {
	if s.state.Load() == stateReady {
		return nil
	}
	return fmt.Errorf("%w: server is shut down", ErrUnavailable)
}

// Close stops the session reaper, releases every live clean session, and —
// for a durable server — flushes and fsyncs the WAL before closing it, so a
// graceful shutdown (e.g. SIGTERM) loses nothing, not even records still in
// the group-commit window. Safe to call more than once; afterwards every
// request answers ErrUnavailable (HTTP 503).
func (s *Server) Close() {
	if !s.state.CompareAndSwap(stateReady, stateClosed) {
		return // already closed
	}
	if s.tailer != nil {
		// Stop tailing first, then persist the final applied cursor behind one
		// last fsync, so a restart resumes exactly where the tail stopped
		// instead of re-fetching (idempotently) from the last tip save.
		s.tailer.Close()
		if c := s.tailer.Status().Cursor; !c.IsZero() && c != s.lastSaved {
			if err := s.journal.store.Sync(); err != nil {
				s.logf("serve: follower shutdown: syncing replicated journal: %v", err)
			} else if err := replica.SaveCursor(s.cursorPath, c); err != nil {
				s.logf("serve: follower shutdown: persisting cursor: %v", err)
			}
		}
	}
	s.sessions.close()
	if s.journal != nil {
		s.journal.close()
	}
}

// RecoveredCounts reports what a durable Open found: registered datasets and
// live (including suspended) clean sessions. Handy for startup logging.
func (s *Server) RecoveredCounts() (datasets, sessions int) {
	s.mu.RLock()
	datasets = len(s.datasets)
	s.mu.RUnlock()
	return datasets, s.CleanSessionCount()
}

// Dataset is one registered incomplete dataset with its serving state.
type Dataset struct {
	name        string
	fingerprint string
	data        *dataset.Incomplete
	kernel      knn.Kernel
	k           int // default K for queries against this dataset
	// persistable marks a dataset whose kernel has a wire form (every
	// built-in kernel; custom Go implementations do not), so it and its
	// sessions can be journaled. Always true for HTTP registrations.
	persistable bool
	// ready is closed once the registration is durable (immediately for
	// in-memory/recovered datasets); registerErr is set first if the WAL
	// commit failed and the registration was rolled back. A concurrent
	// idempotent Register of the same content waits on it, so no caller is
	// ever told "registered" before the registration would survive a crash.
	ready       chan struct{}
	registerErr error

	mu    sync.Mutex
	pools map[int]*enginePool // by K
}

// Register adds an incomplete dataset under the given name. kernel defaults
// to the paper's NegEuclidean, k to 3. Registering an identical dataset
// (same fingerprint, kernel, K) under an existing name is idempotent;
// conflicting re-registration is an error.
func (s *Server) Register(name string, d *dataset.Incomplete, kernel knn.Kernel, k int) (*Dataset, error) {
	if err := s.writeGate(); err != nil {
		return nil, err
	}
	if name == "" {
		return nil, fmt.Errorf("serve: dataset name required")
	}
	if kernel == nil {
		kernel = knn.NegEuclidean{}
	}
	if d.N() == 0 {
		return nil, fmt.Errorf("serve: cannot register an empty dataset")
	}
	// A row with no candidates has no possible worlds — and would panic the
	// feature-dimension probe (Dataset.dim) and every scan over it. dataset
	// decoders reject this shape already; hand-built values get a clean
	// 400-mapped error here instead of a panic at first query.
	for i := range d.Examples {
		if d.Examples[i].M() == 0 {
			return nil, fmt.Errorf("serve: example %d has no candidates", i)
		}
	}
	if k <= 0 {
		// The default K must stay valid on tiny datasets: clamp to min(3, N)
		// instead of failing with an out-of-range error the caller never
		// asked for.
		k = 3
		if n := d.N(); k > n {
			k = n
		}
	}
	if k > d.N() {
		return nil, fmt.Errorf("serve: K=%d out of range for N=%d", k, d.N())
	}
	_, persistable := kernelSpecFor(kernel)
	ds := &Dataset{
		name:        name,
		fingerprint: Fingerprint(d, kernel, k),
		data:        d,
		kernel:      kernel,
		k:           k,
		persistable: persistable,
		pools:       make(map[int]*enginePool),
	}
	for {
		s.mu.Lock()
		if old, ok := s.datasets[name]; ok {
			s.mu.Unlock()
			if old.fingerprint != ds.fingerprint {
				return nil, fmt.Errorf("%w: dataset %q already registered with a different fingerprint", ErrConflict, name)
			}
			// Idempotent hit — but "registered" must mean durable, so wait for
			// the original registration's WAL commit rather than acknowledging
			// state a crash could still lose. If that commit failed and rolled
			// back, retry the registration ourselves.
			<-old.ready
			if old.registerErr != nil {
				continue
			}
			return old, nil
		}
		if s.journal != nil && !persistable {
			s.logf("serve: dataset %q uses a custom kernel with no wire form; it and its sessions will not survive a restart", name)
		}
		ds.ready = make(chan struct{})
		s.datasets[name] = ds
		// Buffer the journal record under the lock so a concurrent snapshot can
		// never capture a registry state the log is missing; pay the fsync wait
		// (commit) after unlocking so registrations don't stall every lookup
		// for a group-commit window. A registration the WAL cannot record must
		// not exist: it would silently vanish on restart while its sessions'
		// records survive — so a failed commit rolls the insert back.
		commit, err := s.journalRegisterStart(ds)
		if err != nil {
			delete(s.datasets, name)
			ds.registerErr = err
			close(ds.ready)
			s.mu.Unlock()
			return nil, err
		}
		s.mu.Unlock()
		if err := commit(); err != nil {
			s.mu.Lock()
			if cur, ok := s.datasets[name]; ok && cur == ds {
				delete(s.datasets, name)
			}
			ds.registerErr = err
			close(ds.ready)
			s.mu.Unlock()
			return nil, err
		}
		close(ds.ready)
		return ds, nil
	}
}

// Dataset looks up a registered dataset by name.
func (s *Server) Dataset(name string) (*Dataset, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown dataset %q", ErrNotFound, name)
	}
	return ds, nil
}

// Names lists registered dataset names in sorted order.
func (s *Server) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.namesLocked()
}

// namesLocked is Names with s.mu already held (either mode).
func (s *Server) namesLocked() []string {
	out := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Name returns the registration name.
func (d *Dataset) Name() string { return d.name }

// Fingerprint returns the dataset's content fingerprint.
func (d *Dataset) Fingerprint() string { return d.fingerprint }

// Data returns the underlying incomplete dataset. Treat it as immutable:
// engines cached by the serving layer alias its candidate vectors.
func (d *Dataset) Data() *dataset.Incomplete { return d.data }

// Kernel returns the similarity kernel queries run under.
func (d *Dataset) Kernel() knn.Kernel { return d.kernel }

// K returns the default K.
func (d *Dataset) K() int { return d.k }

// resolveK applies the dataset default and validates the range.
func (d *Dataset) resolveK(k int) (int, error) {
	if k == 0 {
		k = d.k
	}
	if k <= 0 || k > d.data.N() {
		return 0, fmt.Errorf("serve: K=%d out of range for N=%d", k, d.data.N())
	}
	return k, nil
}

// Fingerprint hashes the dataset contents together with the kernel identity
// and default K — the cache key property: equal fingerprints answer every CP
// query identically.
func Fingerprint(d *dataset.Incomplete, kernel knn.Kernel, k int) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	h.Write([]byte(kernel.Name()))
	// Name() alone under-identifies parameterized kernels.
	if rbf, ok := kernel.(knn.RBF); ok {
		writeFloat(rbf.Gamma)
	}
	writeInt(k)
	writeInt(d.NumLabels)
	writeInt(d.N())
	for i := range d.Examples {
		ex := &d.Examples[i]
		writeInt(ex.Label)
		writeInt(ex.M())
		for _, c := range ex.Candidates {
			writeInt(len(c))
			for _, v := range c {
				writeFloat(v)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
