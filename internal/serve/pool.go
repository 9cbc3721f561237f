package serve

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// enginePool owns the per-(dataset, K) serving state: a Scratch free list
// (shape identical across every engine of the dataset) and an LRU of
// constructed engines keyed by test point, budgeted both by entry count and
// by approximate engine bytes through the shared lruBudget accounting.
// Cached engines carry no pins, so they are safe for concurrent queries from
// many goroutines, each with its own Scratch, and every query is a plain
// sweep: with no pins there is no delta for incremental state to exploit,
// and repeats are the result cache's job.
type enginePool struct {
	ds       *Dataset
	k        int
	capacity int

	mu        sync.Mutex
	cache     *lruBudget[*core.Engine] // guarded by mu
	scratches *core.ScratchPool        // created on first use; guarded by mu

	builds atomic.Int64 // engines constructed
	hits   atomic.Int64 // cache hits
}

// pool returns (creating if needed) the engine pool for K.
func (d *Dataset) pool(k int, cfg Config) *enginePool {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pools[k]
	if !ok {
		p = &enginePool{
			ds:       d,
			k:        k,
			capacity: cfg.EngineCacheSize,
			cache:    newLRUBudget[*core.Engine](cfg.EngineCacheSize, cfg.MaxEngineBytes),
		}
		d.pools[k] = p
	}
	return p
}

// pointKey encodes a test point as a cache key (exact bit pattern; NaNs and
// signed zeros hash as distinct, which only costs a cache miss).
func pointKey(t []float64) string {
	b := make([]byte, 8*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return string(b)
}

// engine returns a query engine for test point t, from cache when possible.
// The returned engine may be shared with other goroutines; callers must not
// pin it (session queries pin a Fork of it).
func (p *enginePool) engine(t []float64) *core.Engine {
	if p.capacity <= 0 {
		e := core.NewTruncatedEngine(p.ds.data, p.ds.kernel, t, p.k)
		p.builds.Add(1)
		return e
	}
	key := pointKey(t)
	p.mu.Lock()
	if e, ok := p.cache.get(key); ok {
		p.mu.Unlock()
		p.hits.Add(1)
		return e
	}
	p.mu.Unlock()
	// Construction is the expensive part (similarities + candidate sort);
	// keep it outside the lock. A concurrent miss on the same key builds a
	// duplicate and the first insert wins — wasted work, not a bug.
	e := core.NewTruncatedEngine(p.ds.data, p.ds.kernel, t, p.k)
	p.builds.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	cur, _ := p.cache.put(key, e, e.ApproxBytes())
	return cur
}

// query answers both CP queries for e under its pins with a fresh SS-DC
// sweep on a pooled Scratch. e is a pooled engine or a session's fork of one.
func (p *enginePool) query(e *core.Engine, k int, useMC bool) (PointResult, error) {
	scratches := p.scratchesFor(e)
	sc := scratches.Get()
	defer scratches.Put(sc)
	var counts []float64
	if useMC {
		counts = e.CountsMC(sc, -1, -1)
	} else {
		counts = e.Counts(sc, -1, -1)
	}
	return assemblePointResult(e, k, append([]float64(nil), counts...))
}

// scratchesFor returns the shared Scratch free list, creating it on first
// use from template (any engine of the dataset has the right shape; the
// pool captures only the shape, never the engine).
func (p *enginePool) scratchesFor(template *core.Engine) *core.ScratchPool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.scratches == nil {
		sp, err := core.NewScratchPool(template, p.k)
		if err != nil {
			// K was validated by resolveK before any pool use.
			panic(err)
		}
		p.scratches = sp
	}
	return p.scratches
}

// PoolStats reports one (K, pool) pair's serving counters. EngineBuilds and
// EngineHits count every engine lookup, dataset and session queries alike:
// a session query's first visit to a point fetches the pooled engine it
// forks.
type PoolStats struct {
	K             int   `json:"k"`
	EngineBuilds  int64 `json:"engine_builds"`
	EngineHits    int64 `json:"engine_hits"`
	EnginesCached int   `json:"engines_cached"`
	// EngineBytes is the approximate heap held by cached engines; Evictions
	// counts engines dropped by the entry or byte budget.
	EngineBytes   int64 `json:"engine_bytes"`
	Evictions     int64 `json:"evictions"`
	ScratchGets   int64 `json:"scratch_gets"`
	ScratchAllocs int64 `json:"scratch_allocs"`
}

// Stats snapshots every pool of the dataset, ordered by K.
func (d *Dataset) Stats() []PoolStats {
	d.mu.Lock()
	pools := make([]*enginePool, 0, len(d.pools))
	for _, p := range d.pools {
		pools = append(pools, p)
	}
	d.mu.Unlock()
	out := make([]PoolStats, 0, len(pools))
	for _, p := range pools {
		st := PoolStats{
			K:            p.k,
			EngineBuilds: p.builds.Load(),
			EngineHits:   p.hits.Load(),
		}
		p.mu.Lock()
		st.EnginesCached = p.cache.len()
		st.EngineBytes = p.cache.bytes
		st.Evictions = p.cache.evictions
		scratches := p.scratches
		p.mu.Unlock()
		if scratches != nil {
			st.ScratchGets, st.ScratchAllocs = scratches.Stats()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}
