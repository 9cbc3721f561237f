package cleaning

import (
	"fmt"
	"math/rand"

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

// cleaner is one iterative cleaner's run: the shared CPClean loop state
// (selection.Run), the world the cleaned rows define, and the trajectory.
type cleaner struct {
	task *Task
	opts Options
	run  *selection.Run
	// choice is the current world: the oracle candidate once cleaned, the
	// default candidate before.
	choice []int
	res    Result
}

// newCleaner starts a run over the task's validation set and records step 0.
// Every pin goes through the run's Selector (even RandomClean's, which never
// scores), so its per-point memos stay coherent with the engines.
func newCleaner(t *Task, opts Options) (*cleaner, error) {
	if t.Val == nil || t.Test == nil {
		return nil, fmt.Errorf("cleaning: task needs validation and test sets")
	}
	run, err := selection.NewRun(t.Dataset(), t.Kernel, t.ValX, t.Repairs.Truth,
		func(e *core.Engine) (*core.ScratchPool, error) { return core.NewScratchPool(e, t.K) },
		selection.Config{
			K:                  t.K,
			Parallelism:        opts.Parallelism,
			UseMC:              opts.UseMC,
			DisableSkipCertain: opts.DisableSkipCertain,
			DisableCache:       opts.DisableIncremental,
		})
	if err != nil {
		return nil, err
	}
	c := &cleaner{task: t, opts: opts, run: run, choice: t.DefaultWorld(), res: Result{AllCertainStep: -1}}
	if err := c.record(-1, 0); err != nil {
		return nil, err
	}
	return c, nil
}

// more reports whether another step runs: a validation example is still
// uncertain, a dirty row is left, and the budget allows it.
func (c *cleaner) more() bool {
	return !c.run.Done() && (c.opts.MaxSteps <= 0 || len(c.res.Order) < c.opts.MaxSteps)
}

// clean cleans row (the oracle reveals its candidate, every engine pins it,
// certainty is refreshed) and records the step.
func (c *cleaner) clean(row int, entropy float64) error {
	cand, err := c.run.Clean(row)
	if err != nil {
		return err
	}
	c.choice[row] = cand
	c.res.Order = append(c.res.Order, row)
	return c.record(row, entropy)
}

// testAccuracy evaluates the current world's test accuracy.
func (c *cleaner) testAccuracy() (float64, error) {
	x, y := c.task.WorldX(c.choice)
	return c.task.AccuracyOnEncoded(x, y)
}

// record appends a StepInfo for the just-performed step.
func (c *cleaner) record(row int, entropy float64) error {
	info := StepInfo{
		Step:           len(c.res.Order),
		Row:            row,
		FracCleaned:    float64(len(c.res.Order)) / float64(len(c.task.Repairs.DirtyRows)),
		ValCertainFrac: c.run.CertainFraction(),
		Entropy:        entropy,
	}
	if c.opts.EvalTestEachStep {
		acc, err := c.testAccuracy()
		if err != nil {
			return err
		}
		info.TestAccuracy = acc
	}
	c.res.Steps = append(c.res.Steps, info)
	if c.res.AllCertainStep < 0 && c.run.AllCertain() {
		c.res.AllCertainStep = len(c.res.Order)
	}
	return nil
}

// finish computes the final metrics shared by both cleaners.
func (c *cleaner) finish() (*Result, error) {
	acc, err := c.testAccuracy()
	if err != nil {
		return nil, err
	}
	c.res.FinalAccuracy = acc
	c.res.ExaminedHypotheses = c.run.Examined()
	return &c.res, nil
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
	c, err := newCleaner(t, opts)
	if err != nil {
		return nil, err
	}
	for c.more() {
		rows, entropies, _ := c.run.Select(max(opts.BatchSize, 1))
		for bi, row := range rows {
			if bi > 0 && !c.more() {
				break
			}
			if err := c.clean(row, entropies[bi]); err != nil {
				return nil, err
			}
		}
	}
	return c.finish()
}

// RandomClean cleans uniformly random dirty rows — the Figure 9 baseline.
func RandomClean(t *Task, opts Options) (*Result, error) {
	if opts.Rand == nil {
		return nil, fmt.Errorf("cleaning: RandomClean requires Options.Rand")
	}
	c, err := newCleaner(t, opts)
	if err != nil {
		return nil, err
	}
	for c.more() {
		rows := c.run.Candidates()
		if err := c.clean(rows[opts.Rand.Intn(len(rows))], 0); err != nil {
			return nil, err
		}
	}
	return c.finish()
}
