package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/serve"
)

// refAnswers maps pointKey → the answer a fresh engine gives for that point.
type refAnswers map[string]serve.PointResult

// newScratches builds the Scratch pool every engine of the dataset shares
// (one shape per dataset and K).
func newScratches(in *inputs) (*core.ScratchPool, error) {
	return core.NewScratchPool(core.NewEngine(in.data, in.kernel, in.tests[0]), in.k)
}

// referenceAnswers computes, in-process and before anything is timed, the
// answer of a fresh core.NewEngine + Counts + CheckMM for every point: the
// bit-for-bit oracle the served answers are checked against.
func referenceAnswers(in *inputs, pts [][]float64) (refAnswers, error) {
	scratches, err := newScratches(in)
	if err != nil {
		return nil, err
	}
	out := make(refAnswers, len(pts))
	for _, p := range pts {
		r, err := freshAnswer(in, scratches, p, untimed)
		if err != nil {
			return nil, err
		}
		out[pointKey(p)] = r
	}
	return out, nil
}

// untimed runs a step of freshAnswer without tracing it.
func untimed(_ string, f func()) { f() }

// freshAnswer is one point's answer from a newly built engine: Q2 fractions
// from a full sweep, plus exact Q1 (the minimal-maximal check) for binary
// labels. Each core call runs through step, which the traced run uses to
// put a span around it.
func freshAnswer(in *inputs, scratches *core.ScratchPool, p []float64, step func(name string, f func())) (serve.PointResult, error) {
	var e *core.Engine
	step("core.NewEngine", func() { e = core.NewEngine(in.data, in.kernel, p) })
	sc := scratches.Get()
	defer scratches.Put(sc)
	var fr []float64
	step("core.Engine.Counts", func() { fr = append([]float64(nil), e.Counts(sc, -1, -1)...) })
	r := serve.PointResult{Prediction: core.ArgmaxProb(fr), Entropy: core.Entropy(fr), Fractions: fr}
	if e.Instance().NumLabels != 2 {
		r.Certain = core.IsCertain(fr)
		return r, nil
	}
	var q1 []bool
	var err error
	step("core.Engine.CheckMM", func() { q1, err = e.CheckMM(in.k, -1, -1) })
	if err != nil {
		return r, err
	}
	for _, b := range q1 {
		r.Certain = r.Certain || b
	}
	return r, nil
}

// checkBatch decodes a batch-query response for pts and checks every
// answer: fractions sum to 1, the prediction is their argmax, and an answer
// for a point in ref equals the reference bit for bit.
func checkBatch(body []byte, pts [][]float64, ref refAnswers) error {
	var res serve.BatchResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("decoding batch result: %w", err)
	}
	if len(res.Results) != len(pts) {
		return fmt.Errorf("batch of %d points answered with %d results", len(pts), len(res.Results))
	}
	for i, r := range res.Results {
		if err := checkPoint(r); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
		if want, ok := ref[pointKey(pts[i])]; ok && !samePoint(r, want) {
			return fmt.Errorf("point %d: answer %+v differs from the fresh-engine reference %+v", i, r, want)
		}
	}
	return nil
}

// checkPoint checks the invariants every answer must satisfy.
func checkPoint(r serve.PointResult) error {
	sum := 0.0
	for _, f := range r.Fractions {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("fractions %v sum to %v, not 1", r.Fractions, sum)
	}
	if want := core.ArgmaxProb(r.Fractions); r.Prediction != want {
		return fmt.Errorf("prediction %d is not the argmax %d of %v", r.Prediction, want, r.Fractions)
	}
	return nil
}

// samePoint compares two answers bit for bit.
func samePoint(a, b serve.PointResult) bool {
	if a.Prediction != b.Prediction || a.Certain != b.Certain ||
		math.Float64bits(a.Entropy) != math.Float64bits(b.Entropy) || len(a.Fractions) != len(b.Fractions) {
		return false
	}
	for i := range a.Fractions {
		if math.Float64bits(a.Fractions[i]) != math.Float64bits(b.Fractions[i]) {
			return false
		}
	}
	return true
}

// cleanRef is the reference clean session: its (row, candidate) step
// sequence and its answers to the session-query batch once done.
type cleanRef struct {
	steps []serve.CleanStep
	final refAnswers
}

// referenceSession runs the same clean session in-process, to completion,
// through serve's own session API, and queries pts at the final pins.
func referenceSession(in *inputs, pts [][]float64) (*cleanRef, error) {
	s := serve.NewServer(serve.Config{})
	defer s.Close()
	if _, err := s.Register(datasetName, in.data, in.kernel, in.k); err != nil {
		return nil, err
	}
	sess, err := s.StartCleanSession(datasetName, serve.CleanRequest{Truth: in.truth, ValPoints: in.vals})
	if err != nil {
		return nil, err
	}
	steps, done, err := sess.Next(math.MaxInt32)
	if err != nil {
		return nil, err
	}
	if !done {
		return nil, fmt.Errorf("reference session not done after %d steps", len(steps))
	}
	res, err := sess.Query(context.Background(), serve.BatchRequest{Points: pts})
	if err != nil {
		return nil, err
	}
	ref := &cleanRef{steps: steps, final: make(refAnswers, len(pts))}
	for i, p := range pts {
		ref.final[pointKey(p)] = res.Results[i]
	}
	return ref, nil
}
