package serve

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// resultCache is the server-wide dataset query result cache: finished
// PointResults keyed by everything that determines an unpinned CP answer —
// dataset fingerprint, K, accumulator mode, and the test point's exact bit
// pattern — so a repeated dataset query is answered without touching an
// engine or a Scratch at all. It sits in front of Dataset.StreamBatchQuery
// only: pooled engines are never pinned, so a dataset-level answer can never
// go stale. Session queries answer from their own per-point memo
// (sessionQueryCache) and never consult it.
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

// resultKey builds the cache key; point is the pointKey encoding of the
// test point.
func resultKey(fingerprint string, k int, useMC bool, point string) string {
	var b strings.Builder
	b.Grow(len(fingerprint) + len(point) + 32)
	b.WriteString(fingerprint)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(k))
	if useMC {
		b.WriteString("|mc|")
	} else {
		b.WriteString("|tally|")
	}
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
