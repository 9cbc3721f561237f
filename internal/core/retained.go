package core

import "fmt"

// Retained is the retained-tree incremental Q2 mode: it answers repeated
// Q2/entropy queries for one (engine, K) pair while the engine's pins evolve,
// reusing the previous answer's scan state instead of re-running the full
// SS-DC sweep. Every answer is bit-for-bit identical to a fresh
// Engine.Counts / Engine.CountsMC call under the current pins (the property
// TestRetainedMatchesFreshSSDC pins), via three reuse tiers:
//
//   - Memo: the pin generation is unchanged → the previous counts are
//     returned verbatim. O(1).
//   - Irrelevant pins: every pin since the memo was a fresh pin of a row the
//     relevance lemma (Engine.RelevantRows) proves unable to enter the
//     top-K → counts, relevance mask, and every retained term are provably
//     bit-identical, so the memo is returned verbatim. O(pins).
//   - Windowed delta: a relevant pin of row r can only change scan terms
//     inside Engine.OrderSpan(r) (before the span r's DP leaf is fixed by
//     its α seed under any pin state, after it [1,0]), so only that
//     window is replayed with real tree work — collapsing r's leaf to its
//     pinned candidate's polynomial — while every other position reuses its
//     retained term stream. The final counts are re-summed term by term in
//     the original scan order, which keeps the floating-point result
//     bit-identical to a fresh sweep. O(window·K²·log N + NM·K) versus the
//     fresh sweep's O(NM·K²·log N).
//
// The bit-exact splice is licensed by the segment tree's purity invariant
// (internal/segtree): node values are a pure function of leaf values, so a
// bulk rebuild at the window start reproduces exactly the tree state a fresh
// scan would carry there.
//
// A Retained is bound to one engine and K and is not safe for concurrent
// use; callers that share one across goroutines must serialize access (the
// serving layer guards each cached instance with the owning entry's mutex).
// Pin mutations on the engine are picked up automatically through
// Engine.PinsSince; mutations that outgrow the engine's bounded pin log
// simply force a full rescan.
type Retained struct {
	e     *Engine
	k     int
	useMC bool

	pool *ScratchPool // optional; otherwise a private Scratch is kept
	own  *Scratch

	valid    bool
	gen      uint64
	counts   []float64 // memoized Q2 fractions under pin generation gen
	relevant []bool    // relevance mask under generation gen
	// terms/offs hold every scan position's recorded support terms in one
	// flat slice: position pos's stream is terms[offs[pos]:offs[pos+1]].
	// Replacing the old per-position [][]term drops a slice header plus its
	// capacity slack per position, makes the re-sum a single linear walk, and
	// lets a window rescan splice in with one suffix shift.
	terms []term
	offs  []int // len(order)+1 stream boundaries

	// window buffers the record sink's output across rescans (capacity
	// reuse).
	window spanResult

	stats RetainedStats
}

// RetainedStats counts how a Retained answered its queries.
type RetainedStats struct {
	// FullScans counts complete SS-DC sweeps (first query, ResetPins, or a
	// pin log that outgrew its window).
	FullScans int64 `json:"full_scans"`
	// MemoHits counts queries answered verbatim from the memo: unchanged pin
	// generation, or only provably irrelevant pins since.
	MemoHits int64 `json:"memo_hits"`
	// DeltaScans counts queries answered by replaying only the changed pin's
	// candidate-span window.
	DeltaScans int64 `json:"delta_scans"`
	// CandidatesScanned counts boundary candidates evaluated with real
	// segment-tree work; CandidatesAvoided counts positions answered from
	// memoized terms instead — the scans a fresh sweep would have paid.
	// Both count kept scan positions only: a truncated engine's order
	// leaves out every candidate below T, so against an untruncated engine
	// the avoided count shrinks and the scanned/(scanned+avoided) ratio
	// rises with no change in behaviour.
	CandidatesScanned int64 `json:"candidates_scanned"`
	CandidatesAvoided int64 `json:"candidates_avoided"`
}

// Add accumulates other into s.
func (s *RetainedStats) Add(other RetainedStats) {
	s.FullScans += other.FullScans
	s.MemoHits += other.MemoHits
	s.DeltaScans += other.DeltaScans
	s.CandidatesScanned += other.CandidatesScanned
	s.CandidatesAvoided += other.CandidatesAvoided
}

// NewRetained builds a retained-tree query mode over e for the given K.
// useMC selects the appendix-A.3 multi-class accumulator (matching
// Engine.CountsMC) instead of tally enumeration (Engine.Counts). scratches,
// when non-nil, lends the scan Scratch per (re)scan — it must be a pool of
// e's shape with the same K; with nil a private Scratch is allocated lazily
// and retained.
func NewRetained(e *Engine, k int, useMC bool, scratches *ScratchPool) (*Retained, error) {
	if err := e.validateK(k); err != nil {
		return nil, err
	}
	if scratches != nil && scratches.K() != k {
		return nil, fmt.Errorf("core: retained K=%d but scratch pool K=%d", k, scratches.K())
	}
	return &Retained{
		e:      e,
		k:      k,
		useMC:  useMC,
		pool:   scratches,
		counts: make([]float64, e.numLabels),
		offs:   make([]int, len(e.order)+1),
	}, nil
}

// UseMC reports whether answers come from the multi-class accumulator.
func (r *Retained) UseMC() bool { return r.useMC }

// Stats snapshots the reuse counters.
func (r *Retained) Stats() RetainedStats { return r.stats }

// Invalidate drops the memo so the next Counts runs a full sweep — the
// ablation hook benchmarks use to measure the non-incremental baseline, and
// the escape hatch after out-of-band engine mutation.
func (r *Retained) Invalidate() { r.valid = false }

// Entropy returns the Shannon entropy (nats) of the current Q2 distribution,
// bit-identical to Entropy over a fresh sweep's counts.
func (r *Retained) Entropy() float64 { return Entropy(r.Counts()) }

// Relevant returns the relevance mask matching the memo state — after a
// Counts call, the mask a fresh Engine.RelevantRows(K) would return under
// the current pins. It is a pure accessor (no recompute, no stats): call
// Counts first when pins may have moved since the last query. The slice
// aliases internal state; valid until the next Counts call.
func (r *Retained) Relevant() []bool {
	return r.relevant
}

// Counts answers Q2 under the engine's current pins, reusing the retained
// scan state wherever the reuse is provably bit-exact. The returned slice
// aliases the memo: copy it before the next pin mutation + Counts call if it
// must outlive them.
func (r *Retained) Counts() []float64 {
	e := r.e
	gen := e.PinGeneration()
	if r.valid && gen == r.gen {
		r.stats.MemoHits++
		r.stats.CandidatesAvoided += int64(len(e.order))
		return r.counts
	}
	if r.valid {
		if events, ok := e.PinsSince(r.gen); ok {
			if lo, hi, usable, sameMask := r.deltaWindow(events); usable {
				if hi < 0 {
					// No pin since the memo can change a kept position's
					// terms — fresh pins of provably irrelevant rows (the
					// RelevantRows lemma) or pins of rows wholly below T — so
					// counts and all retained terms are bit-identical and the
					// memo stays valid under the new generation. Only a row
					// below T that ties the relevance bound can move the mask.
					if !sameMask {
						r.relevant = e.RelevantRows(r.k)
					}
					r.gen = gen
					r.stats.MemoHits++
					r.stats.CandidatesAvoided += int64(len(e.order))
					return r.counts
				}
				r.rescan(lo, hi)
				r.gen = gen
				r.stats.DeltaScans++
				return r.counts
			}
		}
	}
	r.rescan(0, len(e.order)-1)
	r.gen = gen
	r.valid = true
	r.stats.FullScans++
	return r.counts
}

// deltaWindow maps a batch of pin events onto the scan window that must be
// replayed. usable is false for a ResetPins (every row may have changed —
// full rescan). hi < 0 means no window at all: the whole batch is provably
// term-preserving, and sameMask reports that it preserves the relevance
// mask too. Only batches made solely of fresh pins (no pin before, one
// after) may skip the spans of irrelevant rows: an unpin or repin can lower
// the relevance bound, which would unsoundly shrink the window.
func (r *Retained) deltaWindow(events []PinEvent) (lo, hi int, usable, sameMask bool) {
	lo, hi = len(r.e.order), -1
	trusted := true
	for _, ev := range events {
		if ev.Row < 0 {
			return 0, 0, false, false
		}
		if ev.Old >= 0 || ev.New < 0 {
			trusted = false
		}
	}
	sameMask = true
	for _, ev := range events {
		if trusted && !r.relevant[ev.Row] {
			continue
		}
		sameMask = false
		f, l := r.e.OrderSpan(int(ev.Row))
		if f < lo {
			lo = f
		}
		if l > hi {
			hi = l
		}
	}
	return lo, hi, true, sameMask
}

// rescan replays scan positions [lo, hi] with real tree work under the
// current pins, re-records their term streams, and re-sums every position's
// terms in scan order. Positions outside the window keep their retained
// terms — the callers guarantee those are bit-identical under the current
// pins. rescan(0, len(order)−1) is a full sweep.
func (r *Retained) rescan(lo, hi int) {
	e := r.e
	sc := r.getScratch()
	// Reconstruct α and the zero-row count at the window start under the
	// current pins — pure integer work over the seed and the prefix.
	zeroRows := e.seedAlpha(sc.alpha, e.pins)
	for pos := 0; pos < lo; pos++ {
		zeroRows = e.advanceAlpha(pos, sc.alpha, zeroRows)
	}
	// A fresh sweep builds its trees at the first position where the
	// boundary support stops being provably zero; if that transition lies
	// before the window, bulk-build the same leaf state here — bit-identical
	// by the segment tree's purity invariant.
	built := zeroRows <= sc.k-1
	if built {
		e.buildLeaves(sc, e.pins)
	}
	r.stats.CandidatesScanned += e.scan(sc, e.pins, lo, hi, zeroRows, built, r.useMC, &r.window)
	r.putScratch(sc)
	r.splice(lo, hi)
	r.stats.CandidatesAvoided += int64(len(e.order) - (hi - lo + 1))

	// Re-sum all positions' terms in scan order: each addition has the same
	// operands in the same sequence as a fresh sweep's accumulation, so the
	// result is bit-identical.
	for y := range r.counts {
		r.counts[y] = 0
	}
	for i := range r.terms {
		r.counts[r.terms[i].y] += r.terms[i].v
	}
	r.relevant = e.RelevantRows(r.k)
}

// advanceAlpha applies scan position pos to an α trajectory under the
// engine's current pins, returning the updated zero-row count — the
// integer-only prefix walk that seeds a window rescan.
func (e *Engine) advanceAlpha(pos int, alpha []int32, zeroRows int) int {
	ref := e.order[pos]
	i := int(ref.row)
	if ch := int(e.pins[i]); ch >= 0 && int(ref.cand) != ch {
		return zeroRows
	}
	alpha[i]++
	if alpha[i] == 1 {
		zeroRows--
	}
	return zeroRows
}

// splice replaces the retained streams of positions [lo, hi] with the freshly
// recorded window. The flat suffix beyond hi shifts once (an overlapping
// copy), and offsets after the window adjust by the length delta; streams
// outside the window are untouched byte-for-byte, which is what keeps the
// re-summed counts bit-identical to a fresh sweep.
func (r *Retained) splice(lo, hi int) {
	w := &r.window
	oldLo := r.offs[lo]
	oldHi := r.offs[hi+1]
	delta := len(w.terms) - (oldHi - oldLo)
	n := len(r.terms)
	if delta > 0 {
		r.terms = append(r.terms, make([]term, delta)...)
	}
	copy(r.terms[oldHi+delta:n+delta], r.terms[oldHi:n])
	if delta < 0 {
		r.terms = r.terms[:n+delta]
	}
	copy(r.terms[oldLo:], w.terms)
	for pi := 0; pi <= hi-lo; pi++ {
		r.offs[lo+pi] = oldLo + int(w.offs[pi])
	}
	if delta != 0 {
		for p := hi + 1; p < len(r.offs); p++ {
			r.offs[p] += delta
		}
	}
}

func (r *Retained) getScratch() *Scratch {
	if r.pool != nil {
		return r.pool.Get()
	}
	if r.own == nil {
		r.own = newScratchFromShape(r.e.shape(), r.k)
	}
	return r.own
}

func (r *Retained) putScratch(sc *Scratch) {
	if r.pool != nil {
		r.pool.Put(sc)
	}
}

// ApproxBytes estimates the retained state's heap footprint — the flat term
// stream dominates at O(NM·K) — for byte-budgeted caches.
func (r *Retained) ApproxBytes() int64 {
	b := int64(len(r.counts))*8 + int64(len(r.relevant)) +
		int64(cap(r.terms))*16 + int64(len(r.offs))*8
	b += int64(cap(r.window.terms))*16 + int64(cap(r.window.offs))*4
	if r.own != nil {
		b += r.own.ApproxBytes()
	}
	return b
}
