package serve

import "container/list"

// lruBudget is the bookkeeping every serve-layer cache shares: an LRU of
// string-keyed entries budgeted by entry count and by accounted approximate
// bytes, with one eviction policy everywhere — least-recently-used first, and
// the byte budget always keeps the most recent entry, so a single over-budget
// entry degrades to a cache of one instead of thrashing. The engine pool, the
// session query cache, and the result cache all evict through this one
// accounting, which is what keeps their byte budgets comparable in /v1/stats.
//
// lruBudget does no locking; each owner guards its instance with its own
// mutex and keeps expensive work (engine construction, sweeps) outside it.
type lruBudget[V any] struct {
	capacity  int   // max entries; ≤ 0 = no entry-count budget
	maxBytes  int64 // byte budget; ≤ 0 = unlimited
	list      *list.List
	byKey     map[string]*list.Element
	bytes     int64 // Σ accounted bytes of cached entries
	evictions int64 // lifetime entries dropped by either budget
}

// lruItem is one cached binding with its accounted footprint.
type lruItem[V any] struct {
	key   string
	value V
	bytes int64
}

func newLRUBudget[V any](capacity int, maxBytes int64) *lruBudget[V] {
	return &lruBudget[V]{
		capacity: capacity,
		maxBytes: maxBytes,
		list:     list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// get returns the entry for key, refreshing its recency.
func (c *lruBudget[V]) get(key string) (V, bool) {
	if el, ok := c.byKey[key]; ok {
		c.list.MoveToFront(el)
		return el.Value.(*lruItem[V]).value, true
	}
	var zero V
	return zero, false
}

// put inserts v under key and applies the budgets. When the key is already
// present — a concurrent miss built a duplicate — the first insert wins: the
// existing value is refreshed and returned with inserted = false, and v is
// discarded by the caller.
func (c *lruBudget[V]) put(key string, v V, bytes int64) (cur V, inserted bool) {
	if el, ok := c.byKey[key]; ok {
		c.list.MoveToFront(el)
		return el.Value.(*lruItem[V]).value, false
	}
	c.byKey[key] = c.list.PushFront(&lruItem[V]{key: key, value: v, bytes: bytes})
	c.bytes += bytes
	c.evict()
	return v, true
}

// reaccount refreshes an entry's byte estimate after its value grew (retained
// term streams expand on first scan) and re-applies the byte budget. A key
// already evicted is a no-op: nothing is accounted for it.
func (c *lruBudget[V]) reaccount(key string, newBytes int64) {
	el, ok := c.byKey[key]
	if !ok {
		return
	}
	it := el.Value.(*lruItem[V])
	c.bytes += newBytes - it.bytes
	it.bytes = newBytes
	c.evict()
}

// evict drops least-recently-used entries while either budget is exceeded.
func (c *lruBudget[V]) evict() {
	for (c.capacity > 0 && c.list.Len() > c.capacity) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes && c.list.Len() > 1) {
		back := c.list.Back()
		it := back.Value.(*lruItem[V])
		delete(c.byKey, it.key)
		c.list.Remove(back)
		c.bytes -= it.bytes
		c.evictions++
	}
}

// len reports the number of cached entries.
func (c *lruBudget[V]) len() int { return c.list.Len() }
