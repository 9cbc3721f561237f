package cpvet

// Config is the shared analyzer configuration: which packages are in each
// analyzer's scope and which symbols anchor the error-mapping checks. The
// zero value disables every analyzer; use DefaultConfig for this repository's
// contracts.
type Config struct {
	// DeterministicPkgs lists import paths whose every function is
	// replay-/accumulation-order-critical. maporder and nowalltime apply to
	// all code in these packages; elsewhere they apply only to functions
	// whose doc comment carries //cpvet:deterministic.
	DeterministicPkgs map[string]bool

	// CtxPkgs lists import paths whose exported blocking entry points must
	// thread an incoming context.Context instead of minting a fresh one.
	CtxPkgs map[string]bool

	// SentinelPkg is the import path declaring the Err* sentinel variables
	// and the status-mapping function named StatusFunc. errmap checks the
	// mapping is exhaustive over the sentinels and that no file in the
	// package calls http.Error directly.
	SentinelPkg string
	StatusFunc  string

	// CloseCheckPkgs lists import paths where a Close/Flush/Sync error must
	// be checked or explicitly discarded with `_ =`.
	CloseCheckPkgs map[string]bool

	// WALPkg is the import path of the CRC-framed WAL implementation.
	// walframe flags raw file mutation there outside functions annotated
	// //cpvet:allow walframe (the sanctioned framing/rename helpers), and
	// flags any raw file mutation at all in WALClientPkgs, which must go
	// through the WAL API.
	WALPkg        string
	WALClientPkgs map[string]bool

	// ConcurrencyPkgs lists import paths where the flow-sensitive lock
	// discipline analyzers apply: lockheld (the *Locked convention and
	// guarded-field access), unlockpath (every Lock released on all CFG
	// paths), and lockorder (acquisition-order cycles).
	ConcurrencyPkgs map[string]bool

	// HotPathPkgs lists import paths whose mutexes are hot-path: blockedlock
	// flags blocking operations — channel send/receive, select without
	// default, and the calls in BlockingCalls — while any mutex is held.
	HotPathPkgs map[string]bool

	// BlockingCalls names calls blockedlock treats as blocking, keyed
	// "pkgpath.Func" for package functions and "pkgpath.Type.Method" for
	// methods (interface methods included), e.g. "time.Sleep",
	// "os.File.Sync", "repro/internal/durable.Store.AppendSync".
	BlockingCalls map[string]bool

	// GoroutinePkgs lists import paths where every `go` statement must be
	// joined (a WaitGroup Add/Done pairing visible at the spawn site) or
	// bounded (the goroutine selects/receives on ctx.Done() or a
	// stop/shutdown channel).
	GoroutinePkgs map[string]bool

	// LockOrder seeds the lock-acquisition graph with canonical edges
	// (each pair is before → after, using lock class keys
	// "pkgpath.TypeName.field"). Code acquiring in the reverse direction
	// closes a cycle and is reported by lockorder even if the forward
	// acquisition never appears syntactically.
	LockOrder [][2]string
}

// DefaultConfig returns the contract scopes for this repository.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: map[string]bool{
			// Purity re-summation: TestPathIndependence pins that any insert
			// order yields identical summaries.
			"repro/internal/segtree": true,
			// Eq.4 entropy scoring and its memo keys: pinned by
			// TestIncrementalMatchesFullRescore (memo vs full rescore) and
			// TestRetainedRescoreLockstep (memo vs a fresh engine).
			"repro/internal/selection": true,
			// WAL replay and snapshot/compaction: pinned by
			// TestDurableKillRestartLockstep and TestTornTailSweep.
			"repro/internal/durable": true,
		},
		CtxPkgs: map[string]bool{
			"repro/internal/serve": true,
		},
		SentinelPkg: "repro/internal/serve",
		StatusFunc:  "errStatus",
		CloseCheckPkgs: map[string]bool{
			"repro/internal/durable": true,
			"repro/cmd/cpserve":      true,
		},
		WALPkg: "repro/internal/durable",
		WALClientPkgs: map[string]bool{
			"repro/internal/serve":   true,
			"repro/internal/replica": true,
		},
		ConcurrencyPkgs: map[string]bool{
			"repro/internal/serve":     true,
			"repro/internal/durable":   true,
			"repro/internal/segtree":   true,
			"repro/internal/selection": true,
			"repro/internal/cleaning":  true,
			// core's engines and scratch pools are shared across serving
			// goroutines; any mutex it takes stays under lock discipline.
			"repro/internal/core": true,
			"repro/cmd/cpserve":   true,
			// WAL shipping: the Tailer's status mutex and the ship loop's use
			// of the store's frontier signal.
			"repro/internal/replica": true,
		},
		HotPathPkgs: map[string]bool{
			"repro/internal/serve":   true,
			"repro/internal/durable": true,
			"repro/internal/segtree": true,
			// The sweep inner loop is the hottest path in the repository;
			// nothing may block under a mutex there.
			"repro/internal/core":    true,
			"repro/internal/replica": true,
		},
		BlockingCalls: map[string]bool{
			"time.Sleep":          true,
			"os.File.Sync":        true,
			"sync.WaitGroup.Wait": true,
			// Group-commit WAL entry points: each waits for (or performs) an
			// fsync.
			"repro/internal/durable.Store.AppendSync":   true,
			"repro/internal/durable.Store.AppendWait":   true,
			"repro/internal/durable.Store.startSegment": true,
			"repro/internal/durable.syncDir":            true,
		},
		GoroutinePkgs: map[string]bool{
			"repro/internal/serve":     true,
			"repro/internal/durable":   true,
			"repro/internal/segtree":   true,
			"repro/internal/selection": true,
			"repro/internal/cleaning":  true,
			// core spawns no goroutines today; it stays in the set so any it
			// grows must be joined (WaitGroup visible at the spawn site) or
			// bounded before a query returns.
			"repro/internal/core": true,
			"repro/cmd/cpserve":   true,
			// The Tailer's run goroutine is WaitGroup-joined by Close.
			"repro/internal/replica": true,
		},
		// The canonical serve-layer hierarchy: Server.mu before the session
		// store's mu before any Session.mu (see docs/ARCHITECTURE.md,
		// "Locking"). snapshotState in serve/durable.go exercises the full
		// chain. Session.Status takes the session query cache's leaf mu
		// under Session.mu for the query-memo totals.
		LockOrder: [][2]string{
			{"repro/internal/serve.Server.mu", "repro/internal/serve.sessionStore.mu"},
			{"repro/internal/serve.sessionStore.mu", "repro/internal/serve.Session.mu"},
			{"repro/internal/serve.Session.mu", "repro/internal/serve.sessionQueryCache.mu"},
		},
	}
}
