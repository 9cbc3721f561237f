package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// sessionQueryCache answers batch CP queries against a clean session's
// *current* pin state. A session query is a dataset query under the session's
// pins: per (K, test point) the cache keeps a fork of the dataset pool's
// engine (core.Engine.Fork — the pooled similarity view and scan order are
// shared, only the pins are the session's) with the session's executed
// cleaning steps applied, plus the retained-tree query memo (core.Retained)
// keyed by the fork's pin generation. A batch Q2 repeated while the session
// pins rows therefore reuses the prior tree state — an unchanged session is
// a pure memo hit, a session that pinned irrelevant rows since is too, and a
// relevant pin replays only its candidate-span window instead of a full
// SS-DC sweep.
//
// The cache is independent of the session's cleaning engines, so queries run
// concurrently with the (single-goroutine) driver: the driver appends to the
// session history under sess.mu, queries snapshot that history and catch
// their forks up pin by pin under each entry's own lock.
type sessionQueryCache struct {
	ds  *Dataset
	cfg Config

	mu    sync.Mutex
	cache *lruBudget[*squeryEntry] // guarded by mu

	// Lifetime counters, surviving entry eviction. queries counts points
	// answered; the rest mirror core.RetainedStats.
	queries    atomic.Int64
	fullScans  atomic.Int64
	memoHits   atomic.Int64
	deltaScans atomic.Int64
	scanned    atomic.Int64
	avoided    atomic.Int64
}

// squeryEntry is one (K, point) pinned fork + retained memo. mu serializes
// use; last holds the retained stats already folded into the cache counters.
type squeryEntry struct {
	key string
	k   int
	pt  []float64

	mu       sync.Mutex
	engine   *core.Engine
	retained *core.Retained
	applied  int // session history steps applied as pins
	last     core.RetainedStats
}

func newSessionQueryCache(ds *Dataset, cfg Config) *sessionQueryCache {
	capacity := cfg.EngineCacheSize
	if capacity <= 0 {
		// Even with engine caching disabled, session queries need at least
		// one live entry: a pinned fork is the answer's working state, and
		// a bounded cache (not none) is what keeps point sweeps from OOMing.
		capacity = 1
	}
	return &sessionQueryCache{
		ds:    ds,
		cfg:   cfg,
		cache: newLRUBudget[*squeryEntry](capacity, cfg.MaxEngineBytes),
	}
}

// SessionQueryStats is the wire-visible query-memo accounting of one session.
type SessionQueryStats struct {
	// Queries counts points answered against the session's pin state.
	Queries int64 `json:"queries"`
	// Retained aggregates the memo counters: how many answers came from the
	// memo verbatim, from a windowed delta replay, or from a full sweep, and
	// the boundary-candidate scans performed versus avoided.
	Retained core.RetainedStats `json:"retained"`
}

func (q *sessionQueryCache) statsSnapshot() SessionQueryStats {
	return SessionQueryStats{
		Queries: q.queries.Load(),
		Retained: core.RetainedStats{
			FullScans:         q.fullScans.Load(),
			MemoHits:          q.memoHits.Load(),
			DeltaScans:        q.deltaScans.Load(),
			CandidatesScanned: q.scanned.Load(),
			CandidatesAvoided: q.avoided.Load(),
		},
	}
}

// entry returns (creating if needed) the cache entry for (pt, k); pk is
// pt's pointKey. Eviction runs the engine pool's policy through the shared
// lruBudget accounting.
func (q *sessionQueryCache) entry(pt []float64, pk string, k int) *squeryEntry {
	key := strconv.Itoa(k) + "|" + pk
	q.mu.Lock()
	defer q.mu.Unlock()
	if ent, ok := q.cache.get(key); ok {
		return ent
	}
	ent := &squeryEntry{key: key, k: k, pt: pt}
	q.cache.put(key, ent, 0)
	return ent
}

// reaccount refreshes an entry's byte estimate after a query grew its
// retained state, re-applying the byte budget.
func (q *sessionQueryCache) reaccount(ent *squeryEntry, newBytes int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cache.reaccount(ent.key, newBytes)
}

// queryPoint answers one point under the pins of hist (the session's
// executed steps): the entry's fork of the pooled engine is caught up on any
// steps it has not seen, then the retained memo answers — O(1) when nothing
// relevant changed.
func (q *sessionQueryCache) queryPoint(ent *squeryEntry, hist []CleanStep, useMC bool) (PointResult, error) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	pool := q.ds.pool(ent.k, q.cfg)
	if ent.engine == nil {
		e := pool.engine(ent.pt).Fork()
		rt, err := core.NewRetained(e, ent.k, useMC, pool.scratchesFor(e))
		if err != nil {
			return PointResult{}, err
		}
		ent.engine, ent.retained = e, rt
	}
	// Catch the fork up on cleaning steps executed since the last query of
	// this point. Pins only ever accumulate (the history is append-only), so
	// the delta is exactly hist[applied:].
	for ; ent.applied < len(hist); ent.applied++ {
		st := hist[ent.applied]
		ent.engine.SetPin(st.Row, st.Candidate)
	}
	q.queries.Add(1)
	if ent.retained.UseMC() != useMC {
		// Mode flip on a warm entry: answer with a plain sweep rather than
		// thrash the retained accumulator.
		return pool.query(ent.engine, ent.k, useMC)
	}
	if q.cfg.DisableQueryMemo {
		// Ablation baseline: force the full sweep through the same code path
		// so the scan counters stay comparable.
		ent.retained.Invalidate()
	}
	counts := ent.retained.Counts()
	r, err := assemblePointResult(ent.engine, ent.k, append([]float64(nil), counts...))
	s := ent.retained.Stats()
	q.fullScans.Add(s.FullScans - ent.last.FullScans)
	q.memoHits.Add(s.MemoHits - ent.last.MemoHits)
	q.deltaScans.Add(s.DeltaScans - ent.last.DeltaScans)
	q.scanned.Add(s.CandidatesScanned - ent.last.CandidatesScanned)
	q.avoided.Add(s.CandidatesAvoided - ent.last.CandidatesAvoided)
	ent.last = s
	q.reaccount(ent, ent.engine.ApproxBytes()+ent.retained.ApproxBytes())
	return r, err
}

// Query answers a batch CP query against the session's current cleaning
// state: every executed step so far is applied as a pin, exactly as if the
// dataset had been partially cleaned. It is safe to call while a driver is
// stepping the session — each answer reflects a consistent prefix of the
// step history — and repeated batches reuse the per-point retained tree
// state across pins (see sessionQueryCache). Canceling ctx abandons the
// remaining points, as in Server.BatchQuery.
func (sess *Session) Query(ctx context.Context, req BatchRequest) (*BatchResult, error) {
	return collect(len(req.Points), func(yield func(int, PointResult) error) (BatchSummary, error) {
		return sess.StreamQuery(ctx, req, yield)
	})
}

// StreamQuery is Query with the results delivered through yield in request
// order as they complete: the dataset batch pipeline (Dataset.batchQuery)
// scoped to the session's pins.
func (sess *Session) StreamQuery(ctx context.Context, req BatchRequest, yield func(i int, r PointResult) error) (BatchSummary, error) {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return BatchSummary{}, fmt.Errorf("%w: clean session %q", ErrGone, sess.id)
	}
	if sess.queries == nil {
		sess.queries = newSessionQueryCache(sess.ds, sess.server.cfg)
	}
	q := sess.queries
	hist := sess.history[:len(sess.history):len(sess.history)]
	sess.lastUsed = time.Now()
	sess.mu.Unlock()

	k := sess.k
	if req.K != 0 {
		var err error
		if k, err = sess.ds.resolveK(req.K); err != nil {
			return BatchSummary{}, err
		}
	}
	// Session answers are valid for one pin-state prefix: the history is
	// append-only, so its snapshot length is the result-cache generation —
	// a cleaning step bumps it and stale entries are simply never keyed again.
	return sess.ds.batchQuery(ctx, sess.server.cfg.withDefaults(), req, k, sess.id, uint64(len(hist)),
		func(pt []float64, pk string) (PointResult, error) {
			return q.queryPoint(q.entry(pt, pk, k), hist, req.UseMC)
		}, yield)
}

// QueryStats snapshots the session's query-memo counters (zero when the
// session was never queried).
func (sess *Session) QueryStats() SessionQueryStats {
	sess.mu.Lock()
	q := sess.queries
	sess.mu.Unlock()
	if q == nil {
		return SessionQueryStats{}
	}
	return q.statsSnapshot()
}
