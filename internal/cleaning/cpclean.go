package cleaning

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/selection"
)

// newClassifier trains K-NN on encoded features with the dirty table's
// labels.
func newClassifier(t *Task, x [][]float64) (*knn.Classifier, error) {
	return knn.NewClassifier(t.K, t.Kernel, x, t.Dirty.Labels, t.Dirty.NumLabels)
}

// StepInfo records the state after one cleaning step.
type StepInfo struct {
	// Step is the 1-based number of examples cleaned so far.
	Step int
	// Row is the training row cleaned at this step.
	Row int
	// FracCleaned is Step / #dirty rows.
	FracCleaned float64
	// ValCertainFrac is the fraction of validation examples CP'ed after the
	// step.
	ValCertainFrac float64
	// TestAccuracy is the test accuracy of the partially-cleaned world
	// (cleaned rows → oracle candidate, uncleaned → mean/mode candidate).
	// Only populated when the run is configured to evaluate it.
	TestAccuracy float64
	// Entropy is the selected hypothesis's expected conditional entropy
	// (CPClean only).
	Entropy float64
}

// Result summarizes an iterative cleaning run.
type Result struct {
	// Order lists cleaned rows in cleaning order.
	Order []int
	// Steps holds per-step trajectory info (step 0 = before any cleaning).
	Steps []StepInfo
	// AllCertainStep is the number of cleaned examples after which every
	// validation example was CP'ed, or -1 if the run ended first.
	AllCertainStep int
	// FinalAccuracy is the test accuracy of the final returned world.
	FinalAccuracy float64
	// ExaminedHypotheses counts Q2 hypothesis evaluations (CPClean only).
	ExaminedHypotheses int64
}

// Options configures CPClean and RandomClean runs.
type Options struct {
	// MaxSteps caps the number of cleaned examples (0 = no cap: run until
	// every validation example is CP'ed or every dirty row is cleaned).
	MaxSteps int
	// Parallelism bounds worker goroutines (0 = GOMAXPROCS).
	Parallelism int
	// EvalTestEachStep computes StepInfo.TestAccuracy along the trajectory
	// (needed for Figure 9 curves; costs one K-NN evaluation per step).
	EvalTestEachStep bool
	// DisableSkipCertain turns OFF the paper's key lemma — a CP'ed
	// validation example stays CP'ed under further cleaning, so its entropy
	// is 0 forever and it can be skipped. The skip is on by default (zero
	// value); only the ablation bench opts out of it.
	DisableSkipCertain bool
	// BatchSize cleans the top-B entropy-minimizing rows per selection round
	// (1 = the paper's Algorithm 3). Larger batches trade selection quality
	// for B× fewer hypothesis sweeps.
	BatchSize int
	// UseMC answers Q2 with the multi-class SS-DC-MC variant.
	UseMC bool
	// DisableIncremental turns OFF the selection engine's cross-round
	// hypothesis-entropy memo, rescoring every (row, validation point) pair
	// from scratch each round. Selections are identical either way (see
	// internal/selection); this exists as the ablation/benchmark baseline
	// for the incremental reuse.
	DisableIncremental bool
	// Rand drives RandomClean's choices (ignored by CPClean).
	Rand *rand.Rand
}

// DefaultOptions returns the recommended configuration: the certain-skip
// lemma enabled, one row cleaned per hypothesis sweep (the paper's
// Algorithm 3), and GOMAXPROCS worker parallelism. The zero Options value is
// equivalent for correctness; this constructor exists as the documented
// entry point.
func DefaultOptions() Options {
	return Options{BatchSize: 1}
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// runState holds the shared machinery of the iterative cleaners.
type runState struct {
	task    *Task
	opts    Options
	engines []*core.Engine // one per validation example
	// scratches pools query Scratches shared across all engines (identical
	// shape: same dataset, same label order) and across selection rounds.
	scratches *core.ScratchPool
	// sel is the shared incremental entropy-selection engine. All pins route
	// through it (even RandomClean's, which never scores) so its per-point
	// memos stay coherent with the engines.
	sel     *selection.Selector
	certain []bool
	cleaned []bool
	dirty   []int
	choice  []int // current world: oracle candidate once cleaned, default before
}

// newRunState builds per-validation-point engines and the initial certainty
// mask.
func newRunState(t *Task, opts Options) (*runState, error) {
	if t.Val == nil || t.Test == nil {
		return nil, fmt.Errorf("cleaning: task needs validation and test sets")
	}
	if t.Dirty.NumLabels != 2 {
		return nil, fmt.Errorf("cleaning: iterative cleaners require binary labels (MM-based Q1), got %d", t.Dirty.NumLabels)
	}
	st := &runState{
		task:    t,
		opts:    opts.withDefaults(),
		engines: make([]*core.Engine, len(t.ValX)),
		certain: make([]bool, len(t.ValX)),
		cleaned: make([]bool, t.Dirty.NumRows()),
		dirty:   append([]int(nil), t.Repairs.DirtyRows...),
		choice:  t.DefaultWorld(),
	}
	d := t.Dataset()
	var wg sync.WaitGroup
	sem := make(chan struct{}, st.opts.Parallelism)
	errs := make([]error, len(t.ValX))
	for v := range t.ValX {
		wg.Add(1)
		sem <- struct{}{}
		go func(v int) {
			defer wg.Done()
			defer func() { <-sem }()
			st.engines[v] = core.NewTruncatedEngine(d, t.Kernel, t.ValX[v], t.K)
			c, err := st.engines[v].IsCertainMM(t.K)
			if err != nil {
				errs[v] = err
				return
			}
			st.certain[v] = c
		}(v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(st.engines) > 0 {
		pool, err := core.NewScratchPool(st.engines[0], t.K)
		if err != nil {
			return nil, err
		}
		st.scratches = pool
		sel, err := selection.New(st.engines, st.certain, pool, selection.Config{
			K:                  t.K,
			Parallelism:        st.opts.Parallelism,
			UseMC:              st.opts.UseMC,
			DisableSkipCertain: st.opts.DisableSkipCertain,
			DisableCache:       st.opts.DisableIncremental,
		})
		if err != nil {
			return nil, err
		}
		st.sel = sel
	}
	return st, nil
}

// certainFrac returns the fraction of CP'ed validation examples.
func (st *runState) certainFrac() float64 {
	n := 0
	for _, c := range st.certain {
		if c {
			n++
		}
	}
	return float64(n) / float64(len(st.certain))
}

// allCertain reports whether every validation example is CP'ed.
func (st *runState) allCertain() bool {
	for _, c := range st.certain {
		if !c {
			return false
		}
	}
	return true
}

// uncleanedDirty lists dirty rows not yet cleaned.
func (st *runState) uncleanedDirty() []int {
	var out []int
	for _, i := range st.dirty {
		if !st.cleaned[i] {
			out = append(out, i)
		}
	}
	return out
}

// clean performs the cleaning of row i: the oracle reveals the closest
// candidate, all engines pin it, and certainty is refreshed.
func (st *runState) clean(row int) error {
	truth := st.task.Repairs.Truth[row]
	st.cleaned[row] = true
	st.choice[row] = truth
	if st.sel != nil {
		// The selector pins every engine and selectively invalidates its
		// per-validation-point memos.
		st.sel.Pin(row, truth)
	}
	// Refresh certainty of still-uncertain validation examples (certain ones
	// stay certain — the paper's key observation).
	var wg sync.WaitGroup
	sem := make(chan struct{}, st.opts.Parallelism)
	errs := make([]error, len(st.engines))
	for v, e := range st.engines {
		if st.certain[v] {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(v int, e *core.Engine) {
			defer wg.Done()
			defer func() { <-sem }()
			c, err := e.IsCertainMM(st.task.K)
			if err != nil {
				errs[v] = err
				return
			}
			st.certain[v] = c
		}(v, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// testAccuracy evaluates the current world's test accuracy.
func (st *runState) testAccuracy() (float64, error) {
	x, y := st.task.WorldX(st.choice)
	return st.task.AccuracyOnEncoded(x, y)
}

// finish computes the final metrics shared by both cleaners.
func (st *runState) finish(res *Result) error {
	acc, err := st.testAccuracy()
	if err != nil {
		return err
	}
	res.FinalAccuracy = acc
	return nil
}

// recordStep appends a StepInfo for the just-performed step.
func (st *runState) recordStep(res *Result, row int, entropy float64) error {
	info := StepInfo{
		Step:           len(res.Order),
		Row:            row,
		FracCleaned:    float64(len(res.Order)) / float64(len(st.dirty)),
		ValCertainFrac: st.certainFrac(),
		Entropy:        entropy,
	}
	if st.opts.EvalTestEachStep {
		acc, err := st.testAccuracy()
		if err != nil {
			return err
		}
		info.TestAccuracy = acc
	}
	res.Steps = append(res.Steps, info)
	if res.AllCertainStep < 0 && st.allCertain() {
		res.AllCertainStep = len(res.Order)
	}
	return nil
}

// CPClean runs Algorithm 3: at every step it cleans the training example
// whose (uniform-prior) expected conditional entropy of the validation
// predictions is minimal, computed from Q2 via the pinnable SS-DC engines,
// and stops when every validation example is CP'ed (or the budget runs out).
// Scoring goes through the shared incremental selection engine
// (internal/selection), which memoizes per-(row, validation point)
// hypothesis sums across rounds and rescans only the pairs each pin could
// actually have changed.
func CPClean(t *Task, opts Options) (*Result, error) {
	st, err := newRunState(t, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{AllCertainStep: -1}
	if err := st.recordStep(res, -1, 0); err != nil {
		return nil, err
	}
	res.Steps[0].Step = 0
	res.Steps[0].Row = -1

	for {
		if st.allCertain() {
			break
		}
		remaining := st.uncleanedDirty()
		if len(remaining) == 0 {
			break
		}
		if opts.MaxSteps > 0 && len(res.Order) >= opts.MaxSteps {
			break
		}
		batch := opts.BatchSize
		if batch <= 0 {
			batch = 1
		}
		rows, entropies, examined := st.sel.SelectBatch(remaining, batch)
		res.ExaminedHypotheses += examined
		for bi, row := range rows {
			if opts.MaxSteps > 0 && len(res.Order) >= opts.MaxSteps {
				break
			}
			if bi > 0 && st.allCertain() {
				break
			}
			if err := st.clean(row); err != nil {
				return nil, err
			}
			res.Order = append(res.Order, row)
			if err := st.recordStep(res, row, entropies[bi]); err != nil {
				return nil, err
			}
		}
	}
	if err := st.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// RandomClean cleans uniformly random dirty rows — the Figure 9 baseline.
func RandomClean(t *Task, opts Options) (*Result, error) {
	if opts.Rand == nil {
		return nil, fmt.Errorf("cleaning: RandomClean requires Options.Rand")
	}
	st, err := newRunState(t, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{AllCertainStep: -1}
	if err := st.recordStep(res, -1, 0); err != nil {
		return nil, err
	}
	for {
		if st.allCertain() {
			break
		}
		remaining := st.uncleanedDirty()
		if len(remaining) == 0 {
			break
		}
		if opts.MaxSteps > 0 && len(res.Order) >= opts.MaxSteps {
			break
		}
		row := remaining[opts.Rand.Intn(len(remaining))]
		if err := st.clean(row); err != nil {
			return nil, err
		}
		res.Order = append(res.Order, row)
		if err := st.recordStep(res, row, 0); err != nil {
			return nil, err
		}
	}
	if err := st.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}
