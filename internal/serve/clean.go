package serve

import (
	"fmt"
	"math/big"
	"sync"

	"repro/internal/core"
	"repro/internal/selection"
)

// CleanRequest starts a CPClean session over a registered dataset: the
// caller supplies the oracle (the candidate each row would be cleaned to)
// and the validation points whose predictions the session drives to
// certainty.
type CleanRequest struct {
	// Truth[i] is the oracle candidate index of row i (consulted when the
	// session cleans row i). len(Truth) must equal the dataset size.
	Truth []int
	// ValPoints are the encoded validation points.
	ValPoints [][]float64
	// K overrides the dataset default when > 0.
	K int
	// MaxSteps caps cleaned rows (0 = until every validation point is CP'ed
	// or no uncertain rows remain).
	MaxSteps int
}

// CleanStep reports one executed cleaning step.
type CleanStep struct {
	// Step is the 1-based count of cleaned rows.
	Step int `json:"step"`
	// Row is the row cleaned at this step; Candidate its oracle repair.
	Row       int `json:"row"`
	Candidate int `json:"candidate"`
	// Entropy is the selected hypothesis's expected conditional entropy.
	Entropy float64 `json:"entropy"`
	// CertainFraction is the fraction of CP'ed validation points after the
	// step; WorldsRemaining the possible worlds still live under the pins.
	CertainFraction float64 `json:"certain_fraction"`
	WorldsRemaining string  `json:"worlds_remaining"`
	// ExaminedHypotheses counts the hypothesis Q2 scans this step actually
	// performed — after certain-skip, relevance pruning, and the selection
	// engine's cross-round memo. Watching it fall round over round is the
	// serving-visible signature of the incremental selector.
	ExaminedHypotheses int64 `json:"examined_hypotheses"`
}

// CleanSession is an in-progress CPClean run (Algorithm 3) whose steps the
// caller pulls one at a time — the serving layer streams them out as they
// complete. Sessions own private (pinnable) engines but draw Scratches from
// the dataset's shared pool. A session must be driven from one goroutine.
type CleanSession struct {
	ds        *Dataset
	cfg       Config
	k         int
	truth     []int
	maxSteps  int
	engines   []*core.Engine
	scratches *core.ScratchPool
	sel       *selection.Selector
	certain   []bool
	cleaned   []bool
	steps     int
	examined  int64
	closed    bool
}

// validateCleanRequest checks a CleanRequest against the dataset without
// building any engine state, so session creation can reject bad input
// immediately while deferring the expensive build to the first step.
func validateCleanRequest(ds *Dataset, req CleanRequest) (k int, err error) {
	k, err = ds.resolveK(req.K)
	if err != nil {
		return 0, err
	}
	if len(req.ValPoints) == 0 {
		return 0, fmt.Errorf("serve: clean session needs validation points")
	}
	d := ds.data
	if len(req.Truth) != d.N() {
		return 0, fmt.Errorf("serve: truth has %d entries, dataset %d rows", len(req.Truth), d.N())
	}
	for i, j := range req.Truth {
		if j < 0 || j >= d.Examples[i].M() {
			return 0, fmt.Errorf("serve: truth candidate %d out of range for row %d (M=%d)", j, i, d.Examples[i].M())
		}
	}
	dim := ds.dim()
	for i, t := range req.ValPoints {
		if len(t) != dim {
			return 0, fmt.Errorf("serve: val point %d has dim %d, dataset expects %d", i, len(t), dim)
		}
	}
	return k, nil
}

// NewCleanSession validates the request and builds the per-validation-point
// engines (in parallel) plus the initial certainty mask.
func (s *Server) NewCleanSession(name string, req CleanRequest) (*CleanSession, error) {
	ds, err := s.Dataset(name)
	if err != nil {
		return nil, err
	}
	k, err := validateCleanRequest(ds, req)
	if err != nil {
		return nil, err
	}
	return s.buildCleanSession(ds, k, req)
}

// buildCleanSession does the expensive part of session construction — the
// per-validation-point engines (in parallel), the scratch pool hookup, the
// initial certainty sweep, and the selection engine. req must already have
// passed validateCleanRequest.
func (s *Server) buildCleanSession(ds *Dataset, k int, req CleanRequest) (*CleanSession, error) {
	d := ds.data
	cfg := s.cfg
	c := &CleanSession{
		ds:       ds,
		cfg:      cfg,
		k:        k,
		truth:    append([]int(nil), req.Truth...),
		maxSteps: req.MaxSteps,
		engines:  make([]*core.Engine, len(req.ValPoints)),
		certain:  make([]bool, len(req.ValPoints)),
		cleaned:  make([]bool, d.N()),
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Parallelism)
	for v := range req.ValPoints {
		wg.Add(1)
		sem <- struct{}{}
		go func(v int) {
			defer wg.Done()
			defer func() { <-sem }()
			c.engines[v] = core.NewEngine(d, ds.kernel, req.ValPoints[v])
		}(v)
	}
	wg.Wait()
	c.scratches = ds.pool(k, cfg).scratchesFor(c.engines[0])
	if err := c.refreshCertainty(); err != nil {
		return nil, err
	}
	sel, err := selection.New(c.engines, c.certain, c.scratches, selection.Config{
		K:           k,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	c.sel = sel
	return c, nil
}

// isCertain answers Q1 for one session engine under its current pins: exact
// MM for binary labels, Q2-threshold certainty otherwise.
func (c *CleanSession) isCertain(e *core.Engine, sc *core.Scratch) (bool, error) {
	if e.Instance().NumLabels == 2 {
		return e.IsCertainMM(c.k)
	}
	return core.IsCertain(e.Counts(sc, -1, -1)), nil
}

// refreshCertainty re-checks every not-yet-certain validation point
// (certain ones stay certain — the paper's monotonicity lemma).
func (c *CleanSession) refreshCertainty() error {
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.cfg.Parallelism)
	errs := make([]error, len(c.engines))
	for v, e := range c.engines {
		if c.certain[v] {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(v int, e *core.Engine) {
			defer wg.Done()
			defer func() { <-sem }()
			sc := c.scratches.Get()
			defer c.scratches.Put(sc)
			ok, err := c.isCertain(e, sc)
			if err != nil {
				errs[v] = err
				return
			}
			c.certain[v] = ok
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

// CertainFraction returns the fraction of CP'ed validation points.
func (c *CleanSession) CertainFraction() float64 {
	n := 0
	for _, ok := range c.certain {
		if ok {
			n++
		}
	}
	return float64(n) / float64(len(c.certain))
}

// WorldsRemaining returns the possible-world count under the current pins.
func (c *CleanSession) WorldsRemaining() *big.Int {
	return c.engines[0].WorldCount()
}

// Steps returns the number of executed steps.
func (c *CleanSession) Steps() int { return c.steps }

// ExaminedHypotheses returns the cumulative hypothesis Q2 scans across all
// executed steps.
func (c *CleanSession) ExaminedHypotheses() int64 { return c.examined }

// Done reports whether the session has nothing left to do: every validation
// point CP'ed, every uncertain row cleaned, or the step budget exhausted.
func (c *CleanSession) Done() bool {
	if c.maxSteps > 0 && c.steps >= c.maxSteps {
		return true
	}
	if c.CertainFraction() == 1 {
		return true
	}
	return len(c.candidateRows()) == 0
}

// candidateRows lists uncleaned rows that are actually uncertain.
func (c *CleanSession) candidateRows() []int {
	var out []int
	for i := range c.cleaned {
		if !c.cleaned[i] && c.ds.data.Examples[i].M() > 1 {
			out = append(out, i)
		}
	}
	return out
}

// Close releases the session's serving resources: the per-validation-point
// engines and the selection engine's memos dominate session memory
// (O(valpoints · NM log NM)), and dropping them here instead of waiting for
// the whole session object to fall out of scope is what lets the store hold
// many finished-but-not-yet-deleted sessions cheaply. Stepping a closed
// session is an error; Close is idempotent.
func (c *CleanSession) Close() {
	c.closed = true
	c.engines = nil
	c.sel = nil
	c.scratches = nil
}

// Step executes one greedy CPClean step — the shared incremental selection
// engine (internal/selection) scores every candidate row by expected
// conditional entropy (Eq. 4), reusing memoized hypothesis sums from earlier
// steps wherever the last pin provably left them unchanged — then the
// minimizer is cleaned and certainty refreshed. ok is false when the session
// was already done.
func (c *CleanSession) Step() (step CleanStep, ok bool, err error) {
	if c.closed {
		return CleanStep{}, false, fmt.Errorf("serve: clean session is closed")
	}
	if c.Done() {
		return CleanStep{}, false, nil
	}
	rows := c.candidateRows()
	bestRows, bestEntropies, examined := c.sel.SelectBatch(rows, 1)
	c.examined += examined
	row := bestRows[0]
	cand := c.truth[row]
	c.cleaned[row] = true
	c.sel.Pin(row, cand)
	if err := c.refreshCertainty(); err != nil {
		return CleanStep{}, false, err
	}
	c.steps++
	return CleanStep{
		Step:               c.steps,
		Row:                row,
		Candidate:          cand,
		Entropy:            bestEntropies[0],
		CertainFraction:    c.CertainFraction(),
		WorldsRemaining:    c.WorldsRemaining().String(),
		ExaminedHypotheses: examined,
	}, true, nil
}

// Order is a convenience that runs the session to completion and returns
// the cleaned rows in order.
func (c *CleanSession) Order() ([]int, error) {
	var out []int
	for {
		step, ok, err := c.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, step.Row)
	}
}
