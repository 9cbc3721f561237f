package selection

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
	// scored is the last SelectBatch round that scored every relevant row
	// of its rows into hypSum, 0 since a reset. memoized marks that the
	// current round found them all memoized and built no group.
	scored   uint64
	memoized bool
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

	// round counts SelectBatch calls; offeredAt[row] is the last round
	// that offered row.
	round     uint64
	offeredAt []uint64

	// SelectBatch's buffers, reused across rounds.
	stale  []int
	groups []staleGroup
	totals []float64
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
			m.sweeps, m.scored = n, 0
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
	// A point that scored every relevant row of the last round's rows and
	// has not been reset since has every relevant row of this round's
	// memoized, if this round offers no new row.
	s.round++
	if s.offeredAt == nil {
		s.offeredAt = make([]uint64, inst.N())
	}
	sameRows := true
	for _, row := range rows {
		if s.offeredAt[row] != s.round-1 {
			sameRows = false
		}
		s.offeredAt[row] = s.round
	}

	// One pass over the (point, row) pairs of the other points: each
	// point's stale rows — relevant, not memoized — form its group, and
	// memo hits are counted. The groups' entropy sums land in the memos.
	var reused int64
	stale, groups := s.stale[:0], s.groups[:0]
	for _, v := range valIdx {
		memo := &s.memos[v]
		memo.memoized = sameRows && memo.scored > 0 && memo.scored == s.round-1
		memo.scored = s.round
		if memo.memoized {
			continue
		}
		relevant := memo.rt.Relevant()
		from := len(stale)
		for _, row := range rows {
			switch {
			case !relevant[row]:
			case math.IsNaN(memo.hypSum[row]):
				stale = append(stale, row)
				examined += int64(inst.M(row))
			default:
				reused += int64(inst.M(row))
			}
		}
		if len(stale) > from {
			groups = append(groups, staleGroup{v: v, rows: stale[from:len(stale):len(stale)]})
		}
	}
	s.stale, s.groups = stale, groups
	s.score(splitGroups(groups, s.cfg.Parallelism))

	// Each row's score sums its points in valIdx order, so it carries the
	// same bits however the groups were scheduled. Every total moves each
	// round (a sweep moves its point's curH), so the sum visits every pair;
	// it counts the memo hits of the points that built no group.
	totals := slices.Grow(s.totals[:0], len(rows))[:len(rows)]
	clear(totals)
	s.totals = totals
	for _, v := range valIdx {
		memo := &s.memos[v]
		relevant := memo.rt.Relevant()
		for ri, row := range rows {
			if !relevant[row] {
				// Cleaning this row cannot change this validation point's
				// distribution: every candidate yields the current entropy.
				totals[ri] += float64(memo.curH * float64(inst.M(row)))
				continue
			}
			// Scored above, or memoized from an earlier round and still
			// exact because the point's memo has not swept since.
			if memo.memoized {
				reused += int64(inst.M(row))
			}
			totals[ri] += memo.hypSum[row]
		}
	}
	s.examined += examined
	s.reused += reused
	// The batch lowest scores, ascending, ties toward the smaller row
	// index: an insertion into a batch-long run under that total order.
	best := make([]rowScore, 0, min(batch, len(rows)))
	for ri, row := range rows {
		// Uniform prior over the M candidates, averaged over the
		// validation set (certain examples contribute zero).
		rs := rowScore{row: row, entropy: totals[ri] / float64(inst.M(row)) / float64(len(s.certain))}
		if len(best) == cap(best) {
			if cap(best) == 0 || !rs.less(best[len(best)-1]) {
				continue
			}
			best = best[:len(best)-1]
		}
		best = append(best, rs)
		for i := len(best) - 1; i > 0 && best[i].less(best[i-1]); i-- {
			best[i], best[i-1] = best[i-1], best[i]
		}
	}
	bestRows = make([]int, 0, len(best))
	bestEntropies = make([]float64, 0, len(best))
	for _, rs := range best {
		bestRows = append(bestRows, rs.row)
		bestEntropies = append(bestEntropies, rs.entropy)
	}
	return bestRows, bestEntropies, examined
}

// rowScore is a candidate row's expected entropy.
type rowScore struct {
	row     int
	entropy float64
}

// less orders scores by ascending entropy, ties toward the smaller row.
func (a rowScore) less(b rowScore) bool {
	if a.entropy != b.entropy {
		return a.entropy < b.entropy
	}
	return a.row < b.row
}

// staleGroup is a run of one validation point's stale rows.
type staleGroup struct {
	v    int
	rows []int
}

// splitGroups cuts each group into min(workers, rows) parts of near-equal
// size, in order, so a round whose stale rows sit at one or two points
// still keeps every worker busy. Each part pays its own plain pass over
// the point's scan.
func splitGroups(groups []staleGroup, workers int) []staleGroup {
	var units []staleGroup
	for _, g := range groups {
		parts := max(1, min(workers, len(g.rows)))
		for p := 0; p < parts; p++ {
			lo, hi := p*len(g.rows)/parts, (p+1)*len(g.rows)/parts
			units = append(units, staleGroup{v: g.v, rows: g.rows[lo:hi]})
		}
	}
	return units
}

// score computes every unit's entropy sums into its point's memo on up to
// Parallelism workers, each with its own Scratch: one hypothesis group
// pass per unit (core.Engine.HypothesisGroup), or with UseMC one CountsMC
// per pin.
func (s *Selector) score(units []staleGroup) {
	inst := s.engines[0].Instance()
	workers := min(s.cfg.Parallelism, len(units))
	var wg sync.WaitGroup
	work := make(chan staleGroup)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := s.scratches.Get()
			defer s.scratches.Put(sc)
			for u := range work {
				e, hypSum := s.engines[u.v], s.memos[u.v].hypSum
				if s.cfg.UseMC {
					// The multi-class path answers each pin separately.
					for _, row := range u.rows {
						sum := 0.0
						for j := 0; j < inst.M(row); j++ {
							sum += core.Entropy(e.CountsMC(sc, row, j))
						}
						hypSum[row] = sum
					}
					continue
				}
				e.HypothesisGroup(sc, u.rows, func(g int, dists [][]float64) {
					sum := 0.0
					for _, q := range dists {
						sum += core.Entropy(q)
					}
					hypSum[u.rows[g]] = sum
				})
			}
		}()
	}
	for _, u := range units {
		work <- u
	}
	close(work)
	wg.Wait()
}
