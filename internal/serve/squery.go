package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
)

// sessionQueryCache answers batch CP queries against a clean session's
// *current* pin state. A session query is a dataset query under the session's
// pins: per (K, accumulator mode, test point) the cache keeps a fork of the
// dataset pool's engine (core.Engine.Fork — the pooled similarity view and
// scan order are shared, only the pins are the session's) with the session's
// executed cleaning steps applied, plus a Q2 memo of one pin state
// (core.Retained) in that entry's mode. A batch Q2 repeated while the session
// pins rows therefore reuses the prior answer — an unchanged session is a
// pure memo hit, a session that pinned only irrelevant rows since is too —
// and a relevant pin costs one ordinary SS-DC sweep. The driver pays that
// sweep after the step for every point queried in the last
// queryRefreshSteps steps (refresh), so a session queried while it cleans
// finds its memos current; a point queried less recently is caught up by
// its next query. The memo is the only cache a session answer passes
// through: session queries never touch the server-wide result cache.
//
// The cache is independent of the session's run, so queries run
// concurrently with the (single-goroutine) driver: the driver appends to the
// session history under sess.mu, queries snapshot that history and catch
// their forks up pin by pin under each entry's own lock, and the driver's
// refresh catches up recently queried entries under the same locks.
type sessionQueryCache struct {
	ds  *Dataset
	cfg Config

	mu    sync.Mutex
	cache *lruBudget[*squeryEntry] // guarded by mu
	// stats is the session's lifetime total, surviving entry eviction;
	// guarded by mu.
	stats SessionQueryStats
}

// squeryEntry is one (K, mode, point) pinned fork + Q2 memo. mu serializes
// use; last holds the memo counters already folded into the cache's stats.
// result is the answer assembled from the memo when its FullScans count was
// resultScans (0 = none yet: a first query always sweeps): until the memo
// sweeps again, its counts and Q1 are unchanged (the RelevantRows lemma), so
// the answer is reused as is.
type squeryEntry struct {
	key   string
	k     int
	useMC bool
	pt    []float64

	mu       sync.Mutex
	engine   *core.Engine
	retained *core.Retained
	applied  int // session history steps applied as pins
	queried  int // applied at the entry's last query
	last     core.RetainedStats

	result      PointResult
	resultScans int64
}

// queryRefreshSteps is how many steps after its last query a point's memo
// is still refreshed by the driver: a session queried every few steps keeps
// every queried point current, and a point queried once costs at most this
// many refreshes.
const queryRefreshSteps = 64

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
	// memo verbatim, how many full sweeps ran — at a query, or at the
	// driver's refresh after a step — (delta_scans is always 0), and the
	// boundary-candidate scans performed versus avoided.
	Retained core.RetainedStats `json:"retained"`
}

func (q *sessionQueryCache) statsSnapshot() SessionQueryStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// entry returns (creating if needed) the cache entry for (pt, k, useMC);
// pk is pt's pointKey. Eviction runs the engine pool's policy through the
// shared lruBudget accounting.
func (q *sessionQueryCache) entry(pt []float64, pk string, k int, useMC bool) *squeryEntry {
	mode := "|tally|"
	if useMC {
		mode = "|mc|"
	}
	key := strconv.Itoa(k) + mode + pk
	q.mu.Lock()
	defer q.mu.Unlock()
	if ent, ok := q.cache.get(key); ok {
		return ent
	}
	ent := &squeryEntry{key: key, k: k, useMC: useMC, pt: pt}
	q.cache.put(key, ent, 0)
	return ent
}

// account folds the entry's memo counters since its last accounting into
// the session's stats, counting one answered point when query is set, and
// refreshes the entry's byte estimate, re-applying the byte budget. Caller
// holds ent.mu.
func (q *sessionQueryCache) account(ent *squeryEntry, query bool) {
	s := ent.retained.Stats()
	bytes := ent.engine.ApproxBytes() + ent.retained.ApproxBytes() + int64(len(ent.result.Fractions))*8
	q.mu.Lock()
	defer q.mu.Unlock()
	if query {
		q.stats.Queries++
	}
	q.stats.Retained.Add(s.Sub(ent.last))
	ent.last = s
	q.cache.reaccount(ent.key, bytes)
}

// queryPoint answers one point under the pins of hist (the session's
// executed steps): the entry's fork of the pooled engine is caught up on any
// steps it has not seen, then the memo answers — O(N) when nothing relevant
// changed, one sweep otherwise.
func (q *sessionQueryCache) queryPoint(ent *squeryEntry, hist []CleanStep) (PointResult, error) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.engine == nil {
		pool := q.ds.pool(ent.k, q.cfg)
		e := pool.engine(ent.pt).Fork()
		rt, err := core.NewRetained(e, ent.k, ent.useMC, pool.scratchesFor(e))
		if err != nil {
			return PointResult{}, err
		}
		ent.engine, ent.retained = e, rt
	}
	ent.catchUp(hist)
	ent.queried = ent.applied
	if q.cfg.DisableQueryMemo {
		// Ablation baseline: force the full sweep through the same code path
		// so the scan counters stay comparable.
		ent.retained.Invalidate()
	}
	counts := ent.retained.Counts()
	r := ent.result
	var err error
	if scans := ent.retained.Stats().FullScans; scans != ent.resultScans {
		r, err = assemblePointResult(ent.engine, ent.k, append([]float64(nil), counts...))
		if err == nil {
			ent.result, ent.resultScans = r, scans
		}
	}
	q.account(ent, true)
	return r, err
}

// catchUp applies the cleaning steps of hist the entry's fork has not seen
// as pins. Pins only ever accumulate (the history is append-only), so the
// delta is exactly hist[applied:]; an entry already past hist — a driver's
// refresh ran after hist was snapshotted — stays where it is. Caller holds
// ent.mu.
func (ent *squeryEntry) catchUp(hist []CleanStep) {
	for ; ent.applied < len(hist); ent.applied++ {
		st := hist[ent.applied]
		ent.engine.SetPin(st.Row, st.Candidate)
	}
}

// refresh brings every entry queried within the last queryRefreshSteps
// steps of hist — the session's history just after a step — up to hist's
// pins, sweeping its memo if a pin made it stale (core.Retained.Refresh).
// With DisableQueryMemo every query sweeps anyway, so nothing is done.
func (q *sessionQueryCache) refresh(hist []CleanStep) {
	if q.cfg.DisableQueryMemo {
		return
	}
	q.mu.Lock()
	ents := q.cache.appendValues(nil)
	q.mu.Unlock()
	for _, ent := range ents {
		ent.mu.Lock()
		if ent.engine != nil && len(hist)-ent.queried <= queryRefreshSteps {
			ent.catchUp(hist)
			ent.retained.Refresh()
			q.account(ent, false)
		}
		ent.mu.Unlock()
	}
}

// Query answers a batch CP query against the session's current cleaning
// state: every executed step so far is applied as a pin, exactly as if the
// dataset had been partially cleaned. It is safe to call while a driver is
// stepping the session — each answer reflects a consistent prefix of the
// step history — and repeated batches reuse the per-point Q2 memo across
// irrelevant pins (see sessionQueryCache). Canceling ctx abandons the
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
	return sess.ds.batchQuery(ctx, sess.server.cfg.withDefaults(), req, k,
		func(pt []float64, pk string) (PointResult, error) {
			return q.queryPoint(q.entry(pt, pk, k, req.UseMC), hist)
		}, yield)
}

// QueryStats snapshots the session's query-memo counters (zero when the
// session was never queried).
func (sess *Session) QueryStats() SessionQueryStats {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.queries == nil {
		return SessionQueryStats{}
	}
	return sess.queries.statsSnapshot()
}
