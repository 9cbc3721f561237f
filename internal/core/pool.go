package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ApproxBytes estimates the engine's heap footprint — the similarities of
// its present rows (O(NM) untruncated, the rows a bound-first build
// evaluated truncated), the kept scan order, the O(N) row arrays and the
// per-label live rows and tree shapes — so byte-budgeted caches can account
// engines instead of merely counting them.
func (e *Engine) ApproxBytes() int64 {
	n := int64(e.N())
	const sliceHeader = 24
	b := int64(e.inst.presentCandidates()) * 8 // inst.Sims values
	b += int64(len(e.order)) * 8               // order candRefs
	b += n * sliceHeader                       // Sims row headers
	b += n * 8                                 // inst.Labels
	b += int64(len(e.inst.absentM)) * 4        // inst.absentM
	b += n * (4 + 4)                           // pins, slot
	b += n * (4 + 4 + 4)                       // below, argMin, argMax
	for _, rows := range e.liveRows {
		b += int64(len(rows)) * (4 + 4) // liveRows, shape pair parents
	}
	b += int64(e.numLabels) * 2 * sliceHeader // liveRows and shapes headers
	return b
}

// ApproxBytes estimates the scratch's heap footprint: the per-label tree
// storage (grown to the largest collapsed tree it has held, O(live·K)
// floats), the O(N) α and pin vectors, and the hypothesis buffers.
func (sc *Scratch) ApproxBytes() int64 {
	var b int64
	for _, tr := range sc.trees {
		b += tr.ApproxBytes()
	}
	b += int64(len(sc.alpha)+len(sc.pins)) * 4
	b += int64(len(sc.tallies)) * (24 + int64(len(sc.counts))) // tally slices
	for _, h := range sc.hyp {
		b += int64(len(h)) * 8 * 4 // hyp, own, snapPre, snapPost
	}
	return b
}

// ResetPins clears every persistent pin, returning the engine to the fully
// uncertain state. Like SetPin, not safe to call concurrently with queries.
func (e *Engine) ResetPins() {
	for i := range e.pins {
		e.pins[i] = -1
	}
	e.pinGen++
}

// ScratchPool is a concurrency-safe free list of Scratches for one
// (engine shape, K) pair. It amortizes Scratch allocation — the segment
// trees dominate and cost O(N·K) memory — across queries, goroutines, and
// engines of identical shape.
type ScratchPool struct {
	k    int
	pool sync.Pool
	// allocs counts Scratches built fresh; gets counts Get calls. The
	// difference is the number of reuses (modulo GC-evicted pool entries).
	allocs atomic.Int64
	gets   atomic.Int64
}

// NewScratchPool builds a pool producing Scratches for engines shaped like
// template, queried with the given K. K is validated once here; Get never
// fails afterwards. Only the shape is captured — the pool does not retain
// the template engine.
func NewScratchPool(template *Engine, k int) (*ScratchPool, error) {
	if err := template.validateK(k); err != nil {
		return nil, err
	}
	sh := template.shape()
	p := &ScratchPool{k: k}
	p.pool.New = func() interface{} {
		p.allocs.Add(1)
		return newScratchFromShape(sh, k)
	}
	return p, nil
}

// K returns the K the pool's Scratches are allocated for.
func (p *ScratchPool) K() int { return p.k }

// Get returns a Scratch for exclusive use by the calling goroutine. Release
// it with Put when the query results derived from it are no longer needed
// (Counts et al. return slices aliasing the Scratch).
func (p *ScratchPool) Get() *Scratch {
	p.gets.Add(1)
	return p.pool.Get().(*Scratch)
}

// Put returns a Scratch to the pool. The Scratch must have been produced by
// a pool of the same shape and K. Put checks only K — a Scratch of another
// K panics rather than silently corrupt later queries; a shape mismatch is
// the caller's bug and is not detected.
func (p *ScratchPool) Put(sc *Scratch) {
	if sc == nil {
		return
	}
	if sc.k != p.k {
		panic(fmt.Sprintf("core: returning K=%d scratch to K=%d pool", sc.k, p.k))
	}
	p.pool.Put(sc)
}

// Stats reports lifetime Get calls and fresh allocations; gets − allocs
// Scratch constructions were avoided by reuse.
func (p *ScratchPool) Stats() (gets, allocs int64) {
	return p.gets.Load(), p.allocs.Load()
}
