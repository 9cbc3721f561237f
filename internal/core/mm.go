package core

import (
	"container/heap"
	"fmt"
)

// extremePrediction classifies the l-extreme world E_l (§3.2, appendix B):
// each row with label l takes its *most* similar valid candidate, every
// other row its *least* similar valid candidate; a pinned or overridden row
// takes its chosen candidate. Only the live rows are visited: a row whose
// every candidate lies below T (an absent row among them) has at least K+1
// other rows beating each of its candidates in every world, so it never
// enters a top-K. The K most similar visited rows are the same set in any
// visiting order, since the order is strict. Returns the K-NN prediction
// of E_l.
func (e *Engine) extremePrediction(l, k int, pins pinView) int {
	inst := e.inst
	// h keeps the K most similar rows; root = least similar kept.
	h := make(mmHeap, 0, k)
	w := &mmHeapWrap{h: &h}
	for _, ev := range e.live {
		i := inst.rows[ev]
		j := pins.at(i)
		if j < 0 {
			j = e.argMin[ev]
			if inst.Label(int(i)) == l {
				j = e.argMax[ev]
			}
		}
		nb := mmNeighbor{sim: inst.evalRow(int(ev))[j], row: i, cand: j}
		if len(h) < k {
			h = append(h, nb)
			if len(h) == k {
				heap.Init(w)
			}
			continue
		}
		if nb.moreSimilar(h[0]) {
			h[0] = nb
			heap.Fix(w, 0)
		}
	}
	tally := make([]int, inst.NumLabels)
	for _, nb := range h {
		tally[inst.Label(int(nb.row))]++
	}
	return argmaxTally(tally)
}

// mmNeighbor is a (row, chosen candidate) pair inside an MM extreme world,
// with the candidate's similarity.
type mmNeighbor struct {
	sim       float64
	row, cand int32
}

// moreSimilar is MoreSimilar between two neighbors.
func (a mmNeighbor) moreSimilar(b mmNeighbor) bool {
	return moreSimilar(a.sim, int(a.row), int(a.cand), b.sim, int(b.row), int(b.cand))
}

type mmHeap []mmNeighbor

// mmHeapWrap implements heap.Interface under the total order; the root is
// the least similar kept neighbor.
type mmHeapWrap struct {
	h *mmHeap
}

func (w *mmHeapWrap) Len() int { return len(*w.h) }
func (w *mmHeapWrap) Less(i, j int) bool {
	a, b := (*w.h)[i], (*w.h)[j]
	return b.moreSimilar(a)
}
func (w *mmHeapWrap) Swap(i, j int)      { (*w.h)[i], (*w.h)[j] = (*w.h)[j], (*w.h)[i] }
func (w *mmHeapWrap) Push(x interface{}) { *w.h = append(*w.h, x.(mmNeighbor)) }
func (w *mmHeapWrap) Pop() interface{} {
	old := *w.h
	n := len(old)
	x := old[n-1]
	*w.h = old[:n-1]
	return x
}

// MMCheck answers Q1 for binary classification with the MinMax algorithm
// (Algorithm 2): label y can be certainly predicted iff its own extreme
// world predicts it and no other label's extreme world predicts that other
// label. O(NM + |Y|·(N log K + K)). It returns an error for |Y| > 2, where
// the extreme-world argument is unsound (appendix B, Lemma B.1 case 3).
func MMCheck(inst *Instance, k int) ([]bool, error) {
	if inst.NumLabels != 2 {
		return nil, fmt.Errorf("core: MM algorithm requires binary labels, got |Y|=%d", inst.NumLabels)
	}
	if err := validateK(inst, k); err != nil {
		return nil, err
	}
	return NewTruncatedEngineFromInstance(inst, k).CheckMM(k, -1, -1)
}

// CheckMM answers Q1 under the engine's pins plus an optional per-query
// override. Binary labels only.
func (e *Engine) CheckMM(k, overrideRow, overrideCand int) ([]bool, error) {
	if e.numLabels != 2 {
		return nil, fmt.Errorf("core: MM algorithm requires binary labels, got |Y|=%d", e.numLabels)
	}
	if err := e.validateK(k); err != nil {
		return nil, err
	}
	possible := make([]bool, e.numLabels)
	for l := range possible {
		// ∃ world predicting l ⟺ E_l predicts l (Lemma B.2).
		possible[l] = e.extremePrediction(l, k, e.pinsFor(overrideRow, overrideCand)) == l
	}
	out := make([]bool, e.numLabels)
	for l := range out {
		ok := possible[l]
		for lp := range possible {
			if lp != l && possible[lp] {
				ok = false
			}
		}
		out[l] = ok
	}
	return out, nil
}

// IsCertainMM reports whether the test point is CP'ed (some label certainly
// predicted) under the engine's pins. Binary labels only.
func (e *Engine) IsCertainMM(k int) (bool, error) {
	q1, err := e.CheckMM(k, -1, -1)
	if err != nil {
		return false, err
	}
	for _, b := range q1 {
		if b {
			return true, nil
		}
	}
	return false, nil
}
