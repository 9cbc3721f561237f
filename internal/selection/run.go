package selection

import (
	"fmt"
	"math/big"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knn"
)

// Run is one CPClean run (paper §4, Algorithm 3): one truncated engine per
// validation point, the certainty mask, the cleaned rows, the oracle's
// truth and the Selector that scores the candidates. Every iterative
// cleaner drives a Run — the library's cleaning.CPClean and RandomClean
// and the serving layer's clean sessions — so the loop's state exists
// once. Like the Selector, a Run is driven from one goroutine.
type Run struct {
	d           *dataset.Incomplete
	k           int
	parallelism int
	engines     []*core.Engine
	scratches   *core.ScratchPool
	sel         *Selector
	truth       []int
	certain     []bool   // aliased by sel
	checkedAt   []uint64 // engine pin generation each point's certainty holds at
	moved       []int    // refreshCertainty's points to re-check, reused
	cleaned     []bool
	candidates  []int    // Candidates' list, reused
	worlds      *big.Int // possible worlds under the cleaned rows
}

// NewRun builds one truncated engine per validation point, at most
// cfg.Parallelism at a time, and the initial certainty mask. truth[i] is
// the candidate the oracle reveals for row i; it is copied. scratches is
// handed the first engine as a shape template and returns the Scratch pool
// every query of the run draws from.
func NewRun(d *dataset.Incomplete, kernel knn.Kernel, points [][]float64, truth []int,
	scratches func(template *core.Engine) (*core.ScratchPool, error), cfg Config) (*Run, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("selection: needs at least one validation point")
	}
	if len(truth) != d.N() {
		return nil, fmt.Errorf("selection: truth has %d entries, dataset %d rows", len(truth), d.N())
	}
	if cfg.K <= 0 || cfg.K > d.N() {
		return nil, fmt.Errorf("selection: K=%d out of range for N=%d", cfg.K, d.N())
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	r := &Run{
		d:           d,
		k:           cfg.K,
		parallelism: cfg.Parallelism,
		engines:     make([]*core.Engine, len(points)),
		truth:       append([]int(nil), truth...),
		certain:     make([]bool, len(points)),
		checkedAt:   make([]uint64, len(points)),
		cleaned:     make([]bool, d.N()),
	}
	_ = r.each(len(points), func(v int) error { // an engine build cannot fail
		r.engines[v] = core.NewTruncatedEngine(d, kernel, points[v], cfg.K)
		return nil
	})
	r.worlds = r.engines[0].WorldCount()
	var err error
	if r.scratches, err = scratches(r.engines[0]); err != nil {
		return nil, err
	}
	if r.sel, err = New(r.engines, r.certain, r.scratches, cfg); err != nil {
		return nil, err
	}
	if err := r.refreshCertainty(); err != nil {
		return nil, err
	}
	return r, nil
}

// each calls f(i) for every i in [0, n), at most r.parallelism at a time,
// and returns the first error in index order. A single call runs inline.
func (r *Run) each(n int, f func(i int) error) error {
	if n == 1 {
		return f(0)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, r.parallelism)
	errs := make([]error, n)
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// refreshCertainty re-checks the uncertain validation points whose answers
// the pins since their last check may have changed. Certain points stay
// certain (the paper's monotonicity lemma); a point whose memo is unchanged
// since its last check keeps its Q1 answer too
// (core.Retained.UnchangedSince). A memo never computed is never unchanged,
// so the first refresh checks every point. The points are filtered in
// order, and only the rest are re-checked in parallel (inline when one is
// left). Binary labels answer Q1 exactly with MM; more labels use
// threshold certainty over the memo's counts, a sweep SelectBatch reuses,
// except that a UseMC memo holds multi-class counts, so that case runs its
// own tally sweep.
func (r *Run) refreshCertainty() error {
	moved := r.moved[:0]
	for v, e := range r.engines {
		since := r.checkedAt[v]
		r.checkedAt[v] = e.PinGeneration()
		if !r.certain[v] && !r.sel.memos[v].rt.UnchangedSince(since) {
			moved = append(moved, v)
		}
	}
	r.moved = moved
	return r.each(len(moved), func(i int) error {
		v := moved[i]
		e, rt := r.engines[v], r.sel.memos[v].rt
		switch {
		case e.Instance().NumLabels == 2:
			c, err := e.IsCertainMM(r.k)
			r.certain[v] = c
			return err
		case rt.UseMC():
			sc := r.scratches.Get()
			defer r.scratches.Put(sc)
			r.certain[v] = core.IsCertain(e.Counts(sc, -1, -1))
		default:
			r.certain[v] = core.IsCertain(rt.Counts())
		}
		return nil
	})
}

// Candidates lists, ascending, the rows a step may clean: uncleaned rows
// with more than one candidate. The slice is reused: it is valid until the
// next Candidates or Select call.
func (r *Run) Candidates() []int {
	out := r.candidates[:0]
	for i, c := range r.cleaned {
		if !c && r.d.Examples[i].M() > 1 {
			out = append(out, i)
		}
	}
	r.candidates = out
	return out
}

// Select scores every candidate row and returns the batch lowest
// expected-entropy rows (Selector.SelectBatch).
func (r *Run) Select(batch int) (rows []int, entropies []float64, examined int64) {
	return r.sel.SelectBatch(r.Candidates(), batch)
}

// Clean cleans row: the oracle reveals its candidate, every engine pins it
// through the Selector, and certainty is refreshed where the pin may have
// changed it. It returns the candidate.
func (r *Run) Clean(row int) (cand int, err error) {
	cand = r.truth[row]
	if !r.cleaned[row] {
		r.cleaned[row] = true
		r.worlds.Quo(r.worlds, big.NewInt(int64(r.d.Examples[row].M())))
	}
	r.sel.Pin(row, cand)
	return cand, r.refreshCertainty()
}

// numCertain counts the CP'ed validation points.
func (r *Run) numCertain() int {
	n := 0
	for _, c := range r.certain {
		if c {
			n++
		}
	}
	return n
}

// AllCertain reports whether every validation point is CP'ed.
func (r *Run) AllCertain() bool { return r.numCertain() == len(r.certain) }

// CertainFraction returns the fraction of CP'ed validation points.
func (r *Run) CertainFraction() float64 {
	return float64(r.numCertain()) / float64(len(r.certain))
}

// Done reports whether no step is left: every validation point is CP'ed.
// That is also the case once no candidate row remains: every row with more
// than one candidate is pinned in every engine, so one world is left and
// every point is certain.
func (r *Run) Done() bool { return r.AllCertain() }

// WorldCount returns the number of possible worlds under the cleaned rows:
// the run's count, divided by each row's candidate count as it is cleaned,
// copied.
func (r *Run) WorldCount() *big.Int { return new(big.Int).Set(r.worlds) }

// Examined returns the hypothesis Q2 scans performed over the whole run.
func (r *Run) Examined() int64 {
	examined, _ := r.sel.Stats()
	return examined
}
