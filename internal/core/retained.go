package core

import "fmt"

// Retained memoizes the Q2 answer and relevance mask of one (engine, K)
// pair for one pin state, and is the only code that decides whether a pin
// leaves them valid. Session queries (internal/serve) and each validation
// point of a CPClean run (internal/selection) keep one. Every answer is
// bit-for-bit that of a fresh Engine.Counts / Engine.CountsMC call under the
// current pins (TestRetainedMatchesFreshSSDC), via two tiers:
//
//   - Memo hit: every pin mutation since the memo's sweep was a fresh pin
//     (of a row unpinned before) of a row the memo's relevance mask
//     (Engine.RelevantRows) proves unable to enter the top-K. Such pins
//     change neither the counts nor the mask (the RelevantRows lemma), so
//     the memo is returned verbatim. The engine's pin log lists the fresh
//     pins, so the check costs O(1) per pin since the memo's last check.
//   - Full sweep: any other change — a relevant row pinned, a row unpinned
//     or repinned, ResetPins — runs one ordinary SS-DC sweep (the
//     accumulate sink, as Engine.Counts runs it) plus RelevantRows, and the
//     memo moves to the current pins. A pin later undone sweeps too.
//
// A Retained is not safe for concurrent use; callers that share one must
// serialize access. Pin mutations on the engine are picked up through its
// pin log; nothing needs to be told about them.
type Retained struct {
	e     *Engine
	k     int
	useMC bool

	pool *ScratchPool // lends the Scratch of each full sweep

	valid    bool
	gen      uint64    // engine pin generation the memo was last checked at
	sweptGen uint64    // engine pin generation of the last sweep
	counts   []float64 // memoized Q2 fractions
	relevant []bool    // relevance mask

	stats RetainedStats
}

// RetainedStats counts how a Retained answered its queries.
type RetainedStats struct {
	// FullScans counts complete SS-DC sweeps (first query, a relevant pin,
	// an unpin or repin, ResetPins, Invalidate).
	FullScans int64 `json:"full_scans"`
	// MemoHits counts queries answered verbatim from the memo: unchanged
	// pins, or only fresh pins of provably irrelevant rows since.
	MemoHits int64 `json:"memo_hits"`
	// DeltaScans is always 0. It counted windowed delta replays, which a
	// full sweep now replaces. The field stays for wire compatibility:
	// loadbench reads it for its core.retained.delta_scans_per_query
	// metric, so it can go only after a benchmark change drops that metric.
	DeltaScans int64 `json:"delta_scans"`
	// CandidatesScanned counts boundary candidates evaluated with real
	// segment-tree work; CandidatesAvoided counts the kept scan positions
	// memo hits did not sweep — the scans a fresh sweep would have paid.
	// Both count kept scan positions only: a truncated engine's order
	// leaves out every candidate below T.
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

// Sub returns the counts s gained since the earlier snapshot prev.
func (s RetainedStats) Sub(prev RetainedStats) RetainedStats {
	return RetainedStats{
		FullScans:         s.FullScans - prev.FullScans,
		MemoHits:          s.MemoHits - prev.MemoHits,
		DeltaScans:        s.DeltaScans - prev.DeltaScans,
		CandidatesScanned: s.CandidatesScanned - prev.CandidatesScanned,
		CandidatesAvoided: s.CandidatesAvoided - prev.CandidatesAvoided,
	}
}

// NewRetained builds a Q2 memo over e for the given K. useMC selects the
// appendix-A.3 multi-class accumulator (matching Engine.CountsMC) instead of
// tally enumeration (Engine.Counts). scratches lends the scan Scratch per
// sweep; it must be a pool of e's shape with the same K.
func NewRetained(e *Engine, k int, useMC bool, scratches *ScratchPool) (*Retained, error) {
	if err := e.validateK(k); err != nil {
		return nil, err
	}
	if scratches == nil {
		return nil, fmt.Errorf("core: retained needs a scratch pool")
	}
	if scratches.K() != k {
		return nil, fmt.Errorf("core: retained K=%d but scratch pool K=%d", k, scratches.K())
	}
	return &Retained{
		e:      e,
		k:      k,
		useMC:  useMC,
		pool:   scratches,
		counts: make([]float64, e.numLabels),
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

// Relevant returns the memo's relevance mask: after a Counts call, what
// Engine.RelevantRows(K) returns under the current pins. It recomputes
// nothing, and the slice is valid until the next Counts call.
func (r *Retained) Relevant() []bool { return r.relevant }

// Counts answers Q2 under the engine's current pins, from the memo when the
// pins moved only by fresh pins of irrelevant rows, otherwise by one full
// sweep. The returned slice aliases the memo: copy it before the next pin
// mutation + Counts call if it must outlive them.
func (r *Retained) Counts() []float64 {
	e := r.e
	if !r.stale() {
		r.stats.MemoHits++
		r.stats.CandidatesAvoided += int64(len(e.order))
		return r.counts
	}
	r.sweep()
	return r.counts
}

// Refresh brings the memo up to the engine's current pins without
// answering a query: one full sweep when Counts would run one, nothing
// otherwise. Only the sweep is counted, so a later Counts under the same
// pins is a memo hit. Clean sessions call it after each step, moving the
// sweep a pin costs off their queries' path.
func (r *Retained) Refresh() {
	if r.stale() {
		r.sweep()
	}
}

// sweep runs one full sweep under the current pins and moves the memo to
// them.
func (r *Retained) sweep() {
	e := r.e
	sc := r.pool.Get()
	r.stats.CandidatesScanned += e.fullScan(sc, -1, -1, r.useMC)
	copy(r.counts, sc.counts)
	r.pool.Put(sc)
	r.relevant = e.RelevantRows(r.k)
	r.gen = e.pinGen
	r.sweptGen = r.gen
	r.valid = true
	r.stats.FullScans++
}

// stale reports whether the next Counts runs a full sweep: the memo was
// never swept, a mutation since its last check was not a fresh pin (the
// check predates the engine's pin log), or a row pinned since is relevant
// under its mask. A memo that holds is recorded as checked at the current
// pin generation, so each logged pin is read once.
func (r *Retained) stale() bool {
	e := r.e
	if !r.valid || r.gen < e.logGen {
		return true
	}
	for _, row := range e.pinLog[r.gen-e.logGen:] {
		if r.relevant[row] {
			return true
		}
	}
	r.gen = e.pinGen
	return false
}

// UnchangedSince reports, without counting a query, whether the current
// pins provably answer as the pins at generation gen did: the memo was
// swept at gen or earlier and is not stale, so every pin mutation since the
// sweep is a fresh pin of a row that enters no world's top-K, and the
// counts, the mask and Q1 are unchanged.
func (r *Retained) UnchangedSince(gen uint64) bool {
	return !r.stale() && r.sweptGen <= gen
}

// ApproxBytes estimates the memo's heap footprint for byte-budgeted caches:
// O(N) for the mask. The Scratch belongs to the pool.
func (r *Retained) ApproxBytes() int64 {
	return int64(len(r.counts))*8 + int64(len(r.relevant))
}
