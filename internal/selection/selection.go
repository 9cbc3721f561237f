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

// valMemo is the per-validation-point cache: the point's Q2 memo and
// relevance mask under the current pins (a core.Retained, the only code
// that decides whether a pin left them valid) and the hypothesis entropy
// sums scored against that memo.
type valMemo struct {
	rt *core.Retained
	// sweeps is rt's FullScans count when hypSum was last reset. A sweep
	// since then, whoever asked for it, means the point's answer may have
	// moved, so curH is recomputed and every sum dropped.
	sweeps int64
	// curH is the entropy of the point's current (no-hypothesis) Q2
	// distribution — the score contribution of every irrelevant row.
	curH float64
	// hypSum[i] memoizes Σ_j H(Q2 | clean row i → candidate j); NaN marks
	// a pair not yet scanned since the last sweep.
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
	if scratches == nil {
		return nil, fmt.Errorf("selection: needs a scratch pool")
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	memos := make([]valMemo, len(engines))
	for v, e := range engines {
		rt, err := core.NewRetained(e, cfg.K, cfg.UseMC, scratches)
		if err != nil {
			return nil, fmt.Errorf("selection: %w", err)
		}
		memos[v].rt = rt
	}
	return &Selector{
		engines:   engines,
		certain:   certain,
		scratches: scratches,
		cfg:       cfg,
		memos:     memos,
	}, nil
}

// Pin records the cleaning of row to cand on every engine. Each point's
// Retained finds out on its next query whether the pin left its memo valid.
func (s *Selector) Pin(row, cand int) {
	for _, e := range s.engines {
		e.SetPin(row, cand)
	}
}

// Stats reports lifetime hypothesis Q2 scans: performed and avoided by the
// cross-round memo.
func (s *Selector) Stats() (examined, reused int64) {
	return s.examined, s.reused
}

// refresh brings the given validation points' memos to the current pins:
// the Retained answers from its memo or sweeps once, and after any sweep
// since the last reset the current entropy is recomputed and the hypothesis
// table cleared. With DisableCache every memo sweeps every round.
func (s *Selector) refresh(valIdx []int) {
	for _, v := range valIdx {
		m := &s.memos[v]
		if s.cfg.DisableCache {
			m.rt.Invalidate()
		}
		counts := m.rt.Counts()
		if n := m.rt.Stats().FullScans; n != m.sweeps {
			m.sweeps = n
			m.curH = core.Entropy(counts)
			if m.hypSum == nil {
				m.hypSum = make([]float64, s.engines[v].N())
			}
			for i := range m.hypSum {
				m.hypSum[i] = math.NaN()
			}
		}
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
		relevant := memo.rt.Relevant()
		for _, row := range rows {
			switch {
			case !relevant[row]:
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
			if !memo.rt.Relevant()[row] {
				// Cleaning this row cannot change this validation point's
				// distribution: every candidate yields the current entropy.
				total += float64(memo.curH * float64(m))
				continue
			}
			// Scored above, or memoized from an earlier round and still
			// exact because the point's memo has not swept since.
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
