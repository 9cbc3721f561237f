package selection

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
)

// Config tunes a Selector.
type Config struct {
	// K is the number of neighbors (must match the engines' query K).
	K int
	// Parallelism bounds scoring workers (0 = GOMAXPROCS).
	Parallelism int
	// UseMC answers hypothesis Q2 with the multi-class winner-cap DP
	// (CountsMC per candidate) instead of the combined HypothesisCounts scan.
	UseMC bool
	// DisableSkipCertain scores certain validation points too — the §4
	// ablation of the CP'ed-points-stay-CP'ed lemma.
	DisableSkipCertain bool
	// DisableCache turns OFF the cross-round hypothesis memo, rescoring
	// every (row, validation point) pair from scratch each round — the
	// pre-incremental behavior, kept as an ablation/benchmark baseline.
	DisableCache bool
}

// valMemo is the per-validation-point cache. It is valid for exactly one
// engine cleaning state, identified by the engine's pin generation.
type valMemo struct {
	// fresh marks curH/relevant/hypSum as matching the engine state with
	// pin generation gen. Pinning a row relevant to this point clears it.
	fresh bool
	gen   uint64
	// curH is the entropy of the point's current (no-hypothesis) Q2
	// distribution — the score contribution of every irrelevant row.
	curH float64
	// relevant[i] reports whether row i can enter the point's top-K in any
	// world under the current pins (core.Engine.RelevantRows).
	relevant []bool
	// hypSum[i] memoizes Σ_j H(Q2 | clean row i → candidate j); NaN marks
	// a pair not yet scanned under the current state.
	hypSum []float64
}

// Selector owns the scoring machinery of one cleaning run. It shares the
// caller's engines and certainty mask: the caller (a Run, or a direct
// user) refreshes certainty after each pin and the Selector reads the mask
// at selection time. Not safe for concurrent use; one cleaning run must
// drive it from one goroutine.
type Selector struct {
	engines   []*core.Engine
	certain   []bool
	scratches *core.ScratchPool
	cfg       Config
	memos     []valMemo

	examined int64 // hypothesis Q2 scans actually performed
	reused   int64 // scans avoided by the cross-round memo
}

// New builds a Selector over one engine per validation point. certain is
// aliased, not copied: the caller keeps updating it in place and the
// Selector observes the updates. scratches must produce Scratches
// compatible with every engine at cfg.K (all engines of one dataset share a
// shape, so any dataset pool works).
func New(engines []*core.Engine, certain []bool, scratches *core.ScratchPool, cfg Config) (*Selector, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("selection: needs at least one validation engine")
	}
	if len(engines) != len(certain) {
		return nil, fmt.Errorf("selection: %d engines but %d certainty entries", len(engines), len(certain))
	}
	if cfg.K <= 0 || cfg.K > engines[0].N() {
		return nil, fmt.Errorf("selection: K=%d out of range for N=%d", cfg.K, engines[0].N())
	}
	if scratches == nil {
		return nil, fmt.Errorf("selection: needs a scratch pool")
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Selector{
		engines:   engines,
		certain:   certain,
		scratches: scratches,
		cfg:       cfg,
		memos:     make([]valMemo, len(engines)),
	}, nil
}

// Pin records the cleaning of row to cand: every engine is pinned, and each
// validation point's memo is kept or dropped by the invalidation lemma — if
// the row could never enter the point's top-K under the pre-pin state, the
// pin changes neither the point's Q2 distribution nor any hypothesis
// distribution over it, so the memoized entropies remain exact; otherwise
// the memo is rebuilt on the next SelectBatch.
func (s *Selector) Pin(row, cand int) {
	for v := range s.engines {
		e := s.engines[v]
		m := &s.memos[v]
		wasFresh := m.fresh && e.PinGeneration() == m.gen
		e.SetPin(row, cand)
		switch {
		case !wasFresh:
			m.fresh = false
		case m.relevant[row]:
			m.fresh = false
		default:
			m.gen = e.PinGeneration() // memo still matches the engine
		}
	}
}

// Stats reports lifetime hypothesis Q2 scans: performed and avoided by the
// cross-round memo.
func (s *Selector) Stats() (examined, reused int64) {
	return s.examined, s.reused
}

// refresh rebuilds stale memos for the given validation points: relevance
// mask, current entropy (one SS-DC sweep), and a cleared hypothesis table.
// A memo goes stale only after a pin of a row relevant to its point (or a
// pin the Selector did not make), when the point's answer may have changed.
// With DisableCache every memo is rebuilt every round.
func (s *Selector) refresh(valIdx []int) {
	var sc *core.Scratch
	for _, v := range valIdx {
		e := s.engines[v]
		m := &s.memos[v]
		if !s.cfg.DisableCache && m.fresh && e.PinGeneration() == m.gen {
			continue
		}
		if sc == nil {
			sc = s.scratches.Get()
		}
		m.relevant = e.RelevantRows(s.cfg.K)
		if s.cfg.UseMC {
			m.curH = core.Entropy(e.CountsMC(sc, -1, -1))
		} else {
			m.curH = core.Entropy(e.Counts(sc, -1, -1))
		}
		if m.hypSum == nil {
			m.hypSum = make([]float64, e.N())
		}
		for i := range m.hypSum {
			m.hypSum[i] = math.NaN()
		}
		m.gen = e.PinGeneration()
		m.fresh = true
	}
	if sc != nil {
		s.scratches.Put(sc)
	}
}

// SelectBatch scores every candidate row by expected conditional entropy
// (Eq. 4) and returns the `batch` lowest-entropy rows in ascending score
// order (ties toward the smaller row index — deterministic). rows must be
// uncleaned (no engine pin); examined reports the hypothesis Q2 scans this
// round actually performed, net of both prunings and the cross-round memo.
func (s *Selector) SelectBatch(rows []int, batch int) (bestRows []int, bestEntropies []float64, examined int64) {
	if len(rows) == 0 {
		return nil, nil, 0
	}
	inst := s.engines[0].Instance()
	// Uncertain validation points only: certain ones contribute zero entropy
	// under any hypothesis (unless the ablation disables the skip).
	var valIdx []int
	for v, c := range s.certain {
		if !c || s.cfg.DisableSkipCertain {
			valIdx = append(valIdx, v)
		}
	}
	s.refresh(valIdx)

	// The stale (point, row) pairs — relevant, not memoized — point-major,
	// so the pairs of one point reach the workers consecutively and each
	// worker's Scratch records the point's hypothesis tape once and replays
	// it for the rest (core.Engine.HypothesisCounts). The pairs' entropy
	// sums land in the memos; memo hits and irrelevant pairs are counted
	// here.
	type pair struct{ v, row int }
	var stale []pair
	var reused int64
	for _, v := range valIdx {
		memo := &s.memos[v]
		for _, row := range rows {
			switch {
			case !memo.relevant[row]:
			case math.IsNaN(memo.hypSum[row]):
				stale = append(stale, pair{v, row})
				examined += int64(inst.M(row))
			default:
				reused += int64(inst.M(row))
			}
		}
	}
	workers := min(s.cfg.Parallelism, len(stale))
	var wg sync.WaitGroup
	work := make(chan pair)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := s.scratches.Get()
			defer s.scratches.Put(sc)
			for p := range work {
				e := s.engines[p.v]
				sum := 0.0
				if s.cfg.UseMC {
					// The multi-class path answers each pin separately.
					for j := 0; j < inst.M(p.row); j++ {
						sum += core.Entropy(e.CountsMC(sc, p.row, j))
					}
				} else {
					// All M pins from one combined scan.
					for _, q := range e.HypothesisCounts(sc, p.row) {
						sum += core.Entropy(q)
					}
				}
				s.memos[p.v].hypSum[p.row] = sum
			}
		}()
	}
	for _, p := range stale {
		work <- p
	}
	close(work)
	wg.Wait()
	s.examined += examined
	s.reused += reused

	// Each row's score sums its points in valIdx order, so it carries the
	// same bits however the pairs were scheduled.
	type rowScore struct {
		row     int
		entropy float64
	}
	scores := make([]rowScore, len(rows))
	for ri, row := range rows {
		m := inst.M(row)
		total := 0.0
		for _, v := range valIdx {
			memo := &s.memos[v]
			if !memo.relevant[row] {
				// Cleaning this row cannot change this validation point's
				// distribution: every candidate yields the current entropy.
				total += float64(memo.curH * float64(m))
				continue
			}
			// Scored above, or memoized from an earlier round and still
			// exact because no relevant pin has landed on this point since.
			total += memo.hypSum[row]
		}
		// Uniform prior over the M candidates, averaged over the validation
		// set (certain examples contribute zero).
		scores[ri] = rowScore{row: row, entropy: total / float64(m) / float64(len(s.certain))}
	}
	// Ascending entropy, ties toward the smaller row index (deterministic).
	sort.Slice(scores, func(a, b int) bool {
		if scores[a].entropy != scores[b].entropy {
			return scores[a].entropy < scores[b].entropy
		}
		return scores[a].row < scores[b].row
	})
	if batch > len(scores) {
		batch = len(scores)
	}
	bestRows = make([]int, 0, batch)
	bestEntropies = make([]float64, 0, batch)
	for _, rs := range scores[:batch] {
		bestRows = append(bestRows, rs.row)
		bestEntropies = append(bestEntropies, rs.entropy)
	}
	return bestRows, bestEntropies, examined
}
