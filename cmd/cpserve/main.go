// Command cpserve runs the batch CP-query HTTP server.
//
// Usage:
//
//	cpserve -addr :8080 [-train dirty.csv -name mydata] [-k 3]
//	        [-max-candidates 125] [-parallelism 0] [-engine-cache 256]
//	        [-max-engine-bytes 1073741824] [-result-cache-bytes 67108864]
//	        [-max-sessions 64] [-session-ttl 15m]
//	        [-max-register-bytes 33554432] [-max-body-bytes 8388608]
//	        [-data-dir /var/lib/cpserve] [-wal-segment-bytes 8388608]
//	        [-wal-sync-interval 5ms]
//	        [-follow http://leader:8080] [-advertise http://this-host:8080]
//
// With -data-dir set the server is durable: dataset registrations and every
// clean-session event are journaled to a CRC-framed write-ahead log (with
// periodic snapshot compaction) under that directory, and a restart replays
// it — registered datasets come back verbatim, unfinished clean sessions
// come back "suspended" and resume bit-for-bit where the journal ends, and
// released/expired session IDs keep answering 404/410 truthfully. Without
// -data-dir everything is in-memory and dies with the process. Run exactly
// one cpserve per data directory.
//
// With -follow the server is a read-only replica: it tails the leader's WAL
// ship stream (GET /v1/wal/stream), applies every journaled record exactly
// as restart recovery would, re-journals it into its own -data-dir
// (required), and serves all read routes — batch/entropy queries, session
// status, history replay — from the replicated state, byte-identical to the
// leader's answers at the same replication offset. Writes are rejected with
// 421 Misdirected Request plus a Leader header naming the leader (what the
// leader passes via -advertise). A restarting follower resumes from its
// durably persisted cursor; a follower whose cursor the leader has compacted
// away re-bootstraps from GET /v1/wal/snapshot.
//
// Datasets are registered either at startup (-train: a CSV with missing
// cells whose last column is the integer label, expanded into candidate
// repairs with the paper's §5.1 protocol) or at runtime via the JSON API:
//
//	POST   /v1/datasets                 register {name, num_labels, examples, kernel, k}
//	GET    /v1/datasets                 list registered names
//	GET    /v1/datasets/{name}          dataset info + engine/scratch pool stats
//	POST   /v1/datasets/{name}/query    batch CP query {points, k?} → Q1/Q2/entropy per
//	                                    point; a repeated point answers from the result
//	                                    cache or one sweep of its cached engine, and a
//	                                    client disconnect cancels the remaining fan-out
//	                                    (499). With
//	                                    Accept: application/x-ndjson the results stream
//	                                    back one JSON line per point, in request order,
//	                                    as they complete
//	POST   /v1/datasets/{name}/clean    create a CPClean session {truth, val_points,
//	                                    k?, max_steps?} → 201 with a session ID;
//	                                    the run is decoupled from any connection
//	GET    /v1/clean/{id}               session status (state, steps, certainty)
//	POST   /v1/clean/{id}/next?steps=N  execute up to N cleaning steps and return
//	                                    them — the resumable pull interface
//	GET    /v1/clean/{id}/stream?from=K NDJSON: replay executed steps after K,
//	                                    then stream live steps (each with
//	                                    examined_hypotheses), then a summary
//	                                    line; disconnecting detaches the client
//	                                    but the session survives for resume
//	POST   /v1/clean/{id}/query         batch CP query under the session's current pins —
//	                                    answers reflect the partially cleaned state, and
//	                                    repeated batches answer from the per-point Q2 memo
//	                                    (one per point, K and use_mc) across irrelevant
//	                                    pins, never from the result cache (see query_memo
//	                                    in the session status); also streams NDJSON under
//	                                    the same Accept header
//	DELETE /v1/clean/{id}               release the session
//	GET    /v1/stats                    serving + WAL statistics (engine caches and byte
//	                                    budgets, session query-memo reuse, result-cache hit/miss/
//	                                    declined/bytes counters, fsync count/latency,
//	                                    segment/snapshot counts, last replay duration)
//
// Registering with k omitted or 0 defaults to min(3, N). Errors are JSON
// {"error": ...} with status 400 (malformed request, unknown JSON field,
// trailing body data), 404 (unknown dataset or session), 409 (conflicting
// registration, or a session that already has a driver attached), 410
// (expired session), 413 (request body over the configured cap), 429
// (MaxCleanSessions live sessions already exist), 500 (server-side step
// error, or a write the durable journal rejected), or 503 (server outside
// its serving window: still replaying -data-dir, or shutting down).
//
// The listener sets a read-header timeout (Slowloris protection) and shuts
// down gracefully on SIGINT/SIGTERM: in-flight requests drain, live
// sessions are closed and their pooled resources released, and the WAL is
// flushed and fsynced before exit so a graceful stop loses nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/knn"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/table"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	trainPath := flag.String("train", "", "optional incomplete training CSV to register at startup")
	name := flag.String("name", "default", "registration name for -train")
	k := flag.Int("k", 3, "default K for -train")
	maxCands := flag.Int("max-candidates", 125, "cap on candidates per row (-train)")
	parallelism := flag.Int("parallelism", 0, "worker goroutines per batch (0 = GOMAXPROCS)")
	engineCache := flag.Int("engine-cache", 0, "per-dataset engine LRU size (0 = default, <0 = off)")
	maxEngineBytes := flag.Int64("max-engine-bytes", 0, "byte budget per (dataset, K) engine cache (0 = default 1GiB, <0 = unlimited)")
	resultCacheBytes := flag.Int64("result-cache-bytes", 64<<20, "byte budget for the server-wide dataset query result cache; session queries never use it (≤0 = disabled)")
	maxSessions := flag.Int("max-sessions", 0, "cap on live clean sessions (0 = default, <0 = unlimited)")
	sessionTTL := flag.Duration("session-ttl", 0, "evict clean sessions idle this long (0 = default, <0 = never)")
	maxRegisterBytes := flag.Int64("max-register-bytes", 0, "dataset registration body cap (0 = default, <0 = unlimited)")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "query/clean body cap (0 = default, <0 = unlimited)")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + snapshots); empty = in-memory")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 0, "WAL size that triggers snapshot compaction (0 = default, <0 = never)")
	walSyncInterval := flag.Duration("wal-sync-interval", 0, "group-commit fsync window (0 = default, <0 = fsync every append)")
	follow := flag.String("follow", "", "run as a read-only follower of the leader at this base URL (requires -data-dir)")
	advertise := flag.String("advertise", "", "this leader's client-facing base URL, echoed to followers for write redirects")
	flag.Parse()
	if *follow != "" && *trainPath != "" {
		fatalf("-train and -follow are mutually exclusive: a follower takes registrations only from its leader")
	}

	// The listener comes up immediately and answers 503 until recovery (and
	// any -train registration) completes, so health checks and clients see
	// "retry shortly" instead of connection-refused during a long replay.
	var handler atomic.Value
	handler.Store(http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"cpserve: not ready yet (replaying the data directory); retry shortly"}`)
	})))
	httpSrv := &http.Server{
		Addr: *addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(http.Handler).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	var (
		srvMu sync.Mutex
		srv   *serve.Server // nil until recovery completes
	)
	//cpvet:allow goroutine -- one-shot startup recovery: publishes the server via handler.Store and exits; process lifetime, nothing to join
	go func() {
		s, err := serve.Open(serve.Config{
			Parallelism:      *parallelism,
			EngineCacheSize:  *engineCache,
			MaxEngineBytes:   *maxEngineBytes,
			ResultCacheBytes: *resultCacheBytes,
			MaxCleanSessions: *maxSessions,
			SessionTTL:       *sessionTTL,
			MaxRegisterBytes: *maxRegisterBytes,
			MaxQueryBytes:    *maxBodyBytes,
			DataDir:          *dataDir,
			WALSegmentBytes:  *walSegmentBytes,
			WALSyncInterval:  *walSyncInterval,
			FollowURL:        *follow,
			AdvertiseURL:     *advertise,
		})
		if err != nil {
			fatalf("opening data dir %s: %v", *dataDir, err)
		}
		if *dataDir != "" {
			nDatasets, nSessions := s.RecoveredCounts()
			log.Printf("recovered from %s: %d dataset(s), %d live clean session(s)", *dataDir, nDatasets, nSessions)
		}
		if *follow != "" {
			log.Printf("read-only follower of %s; writes answer 421 with a Leader header", *follow)
		}
		if *trainPath != "" {
			registerTrain(s, *trainPath, *name, *k, *maxCands)
		}
		srvMu.Lock()
		srv = s
		srvMu.Unlock()
		handler.Store(serve.Handler(s))
		log.Printf("cpserve ready")
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Printf("cpserve shutting down: draining in-flight requests")
		drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("cpserve: forced shutdown: %v", err)
		}
		// Close releases live sessions and, when -data-dir is set, flushes and
		// fsyncs the WAL, so a graceful stop loses nothing — not even records
		// still inside the group-commit window. (A SIGTERM during recovery
		// finds srv still nil; the half-opened store has no buffered appends
		// to lose.)
		srvMu.Lock()
		if srv != nil {
			srv.Close()
		}
		srvMu.Unlock()
	}()

	log.Printf("cpserve listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
	<-shutdownDone
	log.Printf("cpserve stopped")
}

// registerTrain loads the -train CSV, expands candidate repairs with the
// paper's §5.1 protocol, and registers the dataset (idempotent when the
// data directory already remembers the identical dataset; a fingerprint
// conflict is fatal — the directory and the flag disagree about the data).
func registerTrain(srv *serve.Server, path, name string, k, maxCands int) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	train, err := table.ReadCSV(f)
	// Read-only file; a close error cannot lose data and the read error wins.
	_ = f.Close()
	if err != nil {
		fatalf("reading %s: %v", path, err)
	}
	enc := table.FitEncoder(train, 0)
	reps, err := repair.Generate(train, nil, enc, repair.Options{MaxRowCandidates: maxCands})
	if err != nil {
		fatalf("%v", err)
	}
	ds, err := srv.Register(name, reps.Dataset, knn.NegEuclidean{}, k)
	if err != nil {
		fatalf("%v", err)
	}
	log.Printf("registered %q: %d rows (%d uncertain), %s possible worlds, fingerprint %.12s",
		ds.Name(), ds.Data().N(), len(ds.Data().UncertainRows()), ds.Data().WorldCount(), ds.Fingerprint())
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cpserve: "+format+"\n", args...)
	os.Exit(1)
}
