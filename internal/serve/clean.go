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

// buildRun does the expensive part of session construction: the
// selection.Run, whose validation engines are built in parallel and whose
// Scratches come from the dataset's pool for K. req must already have
// passed validateCleanRequest.
func (s *Server) buildRun(ds *Dataset, k int, req CleanRequest) (*selection.Run, error) {
	pool := ds.pool(k, s.cfg)
	return selection.NewRun(ds.data, ds.kernel, req.ValPoints, req.Truth,
		func(e *core.Engine) (*core.ScratchPool, error) { return pool.scratchesFor(e), nil },
		selection.Config{K: k, Parallelism: s.cfg.Parallelism})
}

// step executes one greedy CPClean step on run, whose first executed steps
// are already done: the shared incremental selection engine
// (internal/selection) scores every candidate row by expected conditional
// entropy (Eq. 4), reusing memoized hypothesis sums from earlier steps
// wherever the last pin provably left them unchanged, then the minimizer is
// cleaned and certainty refreshed. ok is false when the run has nothing left
// to do: every validation point CP'ed, every uncertain row cleaned, or the
// step budget exhausted.
func (sess *Session) step(run *selection.Run, executed int) (step CleanStep, ok bool, err error) {
	if sess.maxSteps > 0 && executed >= sess.maxSteps || run.Done() {
		return CleanStep{}, false, nil
	}
	rows, entropies, examined := run.Select(1)
	cand, err := run.Clean(rows[0])
	if err != nil {
		return CleanStep{}, false, err
	}
	return CleanStep{
		Step:               executed + 1,
		Row:                rows[0],
		Candidate:          cand,
		Entropy:            entropies[0],
		CertainFraction:    run.CertainFraction(),
		WorldsRemaining:    run.WorldCount().String(),
		ExaminedHypotheses: examined,
	}, true, nil
}
