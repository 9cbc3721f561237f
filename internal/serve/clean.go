package serve

import (
	"fmt"

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
// complete. The run's state is a selection.Run (private, pinnable engines;
// Scratches from the dataset's shared pool); the session adds the step
// budget and count. A session must be driven from one goroutine.
type CleanSession struct {
	run      *selection.Run // nil once closed
	maxSteps int
	steps    int
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

// buildCleanSession does the expensive part of session construction: the
// selection.Run, whose validation engines are built in parallel and whose
// Scratches come from the dataset's pool for K. req must already have
// passed validateCleanRequest.
func (s *Server) buildCleanSession(ds *Dataset, k int, req CleanRequest) (*CleanSession, error) {
	pool := ds.pool(k, s.cfg)
	run, err := selection.NewRun(ds.data, ds.kernel, req.ValPoints, req.Truth,
		func(e *core.Engine) (*core.ScratchPool, error) { return pool.scratchesFor(e), nil },
		selection.Config{K: k, Parallelism: s.cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	return &CleanSession{run: run, maxSteps: req.MaxSteps}, nil
}

// Done reports whether the session has nothing left to do: every validation
// point CP'ed, every uncertain row cleaned, or the step budget exhausted.
func (c *CleanSession) Done() bool {
	return c.maxSteps > 0 && c.steps >= c.maxSteps || c.run.Done()
}

// Close releases the session's serving resources: the per-validation-point
// engines and the selection engine's memos dominate session memory
// (O(valpoints · NM log NM)), and dropping them here instead of waiting for
// the whole session object to fall out of scope is what lets the store hold
// many finished-but-not-yet-deleted sessions cheaply. Stepping a closed
// session is an error; Close is idempotent.
func (c *CleanSession) Close() { c.run = nil }

// Step executes one greedy CPClean step — the shared incremental selection
// engine (internal/selection) scores every candidate row by expected
// conditional entropy (Eq. 4), reusing memoized hypothesis sums from earlier
// steps wherever the last pin provably left them unchanged — then the
// minimizer is cleaned and certainty refreshed. ok is false when the session
// was already done.
func (c *CleanSession) Step() (step CleanStep, ok bool, err error) {
	if c.run == nil {
		return CleanStep{}, false, fmt.Errorf("serve: clean session is closed")
	}
	if c.Done() {
		return CleanStep{}, false, nil
	}
	rows, entropies, examined := c.run.Select(1)
	cand, err := c.run.Clean(rows[0])
	if err != nil {
		return CleanStep{}, false, err
	}
	c.steps++
	return CleanStep{
		Step:               c.steps,
		Row:                rows[0],
		Candidate:          cand,
		Entropy:            entropies[0],
		CertainFraction:    c.run.CertainFraction(),
		WorldsRemaining:    c.run.WorldCount().String(),
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
