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
// An answer is admitted on its key's second miss, not its first: a
// doorkeeper — a direct-mapped table of key hashes — remembers the last key
// seen in each slot, and put inserts only a key its slot already holds.
// Certain-prediction queries mostly come once per test example, so on a
// stream of new points the first-miss answers would fill the budget with
// entries never read again. A hash collision can only delay an admission;
// the answer served is always the key's own.
//
// The cache is byte-budgeted through the same lruBudget accounting as the
// engine LRU and opt-in via Config.ResultCacheBytes; cached Fractions slices
// are shared across callers under PointResult's read-only contract.
type resultCache struct {
	maxBytes int64

	mu       sync.Mutex
	cache    *lruBudget[PointResult] // guarded by mu
	door     []uint64                // doorkeeper, allocated on the first put; guarded by mu
	declined int64                   // puts the doorkeeper turned away; guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
}

// doorBits sizes the doorkeeper: 1<<doorBits slots of 8 bytes (512 KiB).
const doorBits = 16

// resultEntryOverhead is an entry's heap beyond its key's and fractions'
// lengths: its lruItem (80 B size class), list.Element (48 B) and map slot
// (≈40 B at the map's average load), and the capacity resultKey grows past
// the key (≈24 B). TestResultCacheApproxBytesTracksAllocs holds the total
// within ±25% of the live heap an entry costs.
const resultEntryOverhead = 192

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

// keyHash is FNV-1a over key with the low bit forced to 1, so no key hashes
// to an empty doorkeeper slot's 0. Its top doorBits bits pick the slot.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h | 1
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

// put offers a finished answer for key. The doorkeeper admits it only when
// its slot already holds key's hash — key missed before — and otherwise
// records the hash there and declines. An admitted answer is accounted at
// its key, fractions and per-entry overhead under the byte budget.
func (rc *resultCache) put(key string, r PointResult) {
	h := keyHash(key)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.door == nil {
		rc.door = make([]uint64, 1<<doorBits)
	}
	if slot := &rc.door[h>>(64-doorBits)]; *slot != h {
		*slot = h
		rc.declined++
		return
	}
	rc.cache.put(key, r, int64(len(key))+int64(len(r.Fractions))*8+resultEntryOverhead)
}

// ResultCacheStats is the /v1/stats result-cache block.
type ResultCacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Declined counts answers the doorkeeper did not admit: their key's
	// first miss, or a miss after a colliding key took the slot.
	Declined int64 `json:"declined"`
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
	st.Declined = rc.declined
	rc.mu.Unlock()
	return st
}
