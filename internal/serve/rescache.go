package serve

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// resultCache is the server-wide query result cache: finished PointResults
// keyed by everything that determines a CP answer — dataset fingerprint,
// session scope, K, accumulator mode, pin generation, and the test point's
// exact bit pattern — so a repeated query is answered without touching an
// engine, a Scratch, or a session's retained memo at all. It sits in front of
// Dataset.StreamBatchQuery (scope "", generation 0: pooled engines are never
// pinned, so a dataset-level answer can never go stale) and
// Session.StreamQuery (scope = session ID, generation = executed-step count:
// the history is append-only, so the prefix length identifies the pin state
// exactly — a cleaning step bumps the generation and the stale entry is
// simply never keyed again, aging out through the byte budget).
//
// The cache is byte-budgeted through the same lruBudget accounting as the
// engine LRU and opt-in via Config.ResultCacheBytes; cached Fractions slices
// are shared across callers under PointResult's read-only contract.
type resultCache struct {
	maxBytes int64

	mu    sync.Mutex
	cache *lruBudget[PointResult] // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		maxBytes: maxBytes,
		cache:    newLRUBudget[PointResult](0, maxBytes),
	}
}

// resultKey builds the cache key. scope is "" for dataset-level queries and
// the session ID for session-level ones; gen is the pin-state generation the
// answer is valid for (0 at dataset level, the executed-step count at session
// level). point is the pointKey encoding of the test point.
func resultKey(fingerprint, scope string, k int, useMC bool, gen uint64, point string) string {
	var b strings.Builder
	b.Grow(len(fingerprint) + len(scope) + len(point) + 32)
	b.WriteString(fingerprint)
	b.WriteByte('|')
	b.WriteString(scope)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(k))
	if useMC {
		b.WriteString("|mc|")
	} else {
		b.WriteString("|tally|")
	}
	b.WriteString(strconv.FormatUint(gen, 10))
	b.WriteByte('|')
	b.WriteString(point)
	return b.String()
}

// get returns the cached answer for key, counting the outcome.
func (rc *resultCache) get(key string) (PointResult, bool) {
	rc.mu.Lock()
	r, ok := rc.cache.get(key)
	rc.mu.Unlock()
	if ok {
		rc.hits.Add(1)
	} else {
		rc.misses.Add(1)
	}
	return r, ok
}

// put caches a finished answer, accounting the key and the fractions slice
// and applying the byte budget.
func (rc *resultCache) put(key string, r PointResult) {
	bytes := int64(len(key)) + int64(len(r.Fractions))*8 + 96
	rc.mu.Lock()
	rc.cache.put(key, r, bytes)
	rc.mu.Unlock()
}

// resultCacheFor returns the result cache a query path should consult: nil
// when the cache is disabled or the query-memo ablation is on (the ablation
// must keep every sweep counter comparable, so no layer may short-circuit).
func (c Config) resultCacheFor() *resultCache {
	if c.DisableQueryMemo {
		return nil
	}
	return c.results
}

// ResultCacheStats is the /v1/stats result-cache block.
type ResultCacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (rc *resultCache) stats() ResultCacheStats {
	st := ResultCacheStats{
		MaxBytes: rc.maxBytes,
		Hits:     rc.hits.Load(),
		Misses:   rc.misses.Load(),
	}
	rc.mu.Lock()
	st.Entries = rc.cache.len()
	st.Bytes = rc.cache.bytes
	st.Evictions = rc.cache.evictions
	rc.mu.Unlock()
	return st
}
