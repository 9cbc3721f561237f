package cleaning

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/repair"
	"repro/internal/table"
)

// GroundTruthAccuracy trains on the ground-truth training table — the
// paper's upper bound.
func GroundTruthAccuracy(t *Task) (float64, error) {
	return t.AccuracyOn(t.Truth)
}

// DefaultCleanAccuracy imputes missing numeric cells with the column mean
// and categorical cells with the column mode — the paper's lower bound
// ("the default and most commonly used way for cleaning missing values").
func DefaultCleanAccuracy(t *Task) (float64, error) {
	return t.AccuracyOn(table.ImputeDefaults(t.Dirty))
}

// BoostCleanResult reports the repair methods selected by BoostClean.
type BoostCleanResult struct {
	Accuracy float64
	// SelectedMethods lists the chosen global repair functions by index into
	// the candidate-method list (numeric candidate slot).
	SelectedMethods []int
	ValAccuracies   []float64
}

// BoostClean selects, from the predefined space of global repair functions
// (impute every numeric cell with its column's {min, p25, mean, p75, max};
// every categorical cell with its column's {top-1..top-4, other}), the
// ensemble maximizing validation accuracy — the §5.1 baseline ("it selects,
// from a predefined set of cleaning methods, the one that has the maximum
// validation accuracy on the validation set", with the same repair space and
// validation set as CPClean). rounds > 1 adds greedy forward selection with
// majority vote, a simplified stand-in for statistical boosting (see
// DESIGN.md §4).
func BoostClean(t *Task, rounds int) (*BoostCleanResult, error) {
	if rounds <= 0 {
		rounds = 1
	}
	const methods = 5
	// Materialize each method's cleaned training set.
	worlds := make([][][]float64, methods)
	valAcc := make([]float64, methods)
	labels := t.Dirty.Labels
	for m := 0; m < methods; m++ {
		choice := make([]int, t.Dirty.NumRows())
		for i := range choice {
			choice[i] = t.methodCandidate(i, m)
		}
		x, _ := t.WorldX(choice)
		worlds[m] = x
		va, err := t.ValAccuracyOnEncoded(x, labels)
		if err != nil {
			return nil, err
		}
		valAcc[m] = va
	}
	// Greedy forward selection of an ensemble (size ≤ rounds) by validation
	// accuracy of the majority vote.
	var selected []int
	for r := 0; r < rounds; r++ {
		bestM, bestAcc := -1, -1.0
		for m := 0; m < methods; m++ {
			trial := append(append([]int(nil), selected...), m)
			acc, err := t.ensembleValAccuracy(worlds, trial)
			if err != nil {
				return nil, err
			}
			if acc > bestAcc {
				bestM, bestAcc = m, acc
			}
		}
		// Stop if adding a member does not help.
		if len(selected) > 0 {
			cur, err := t.ensembleValAccuracy(worlds, selected)
			if err != nil {
				return nil, err
			}
			if bestAcc <= cur {
				break
			}
		}
		selected = append(selected, bestM)
	}
	acc, err := t.ensembleTestAccuracy(worlds, selected)
	if err != nil {
		return nil, err
	}
	return &BoostCleanResult{Accuracy: acc, SelectedMethods: selected, ValAccuracies: valAcc}, nil
}

// methodCandidate maps global repair method m to row i's candidate index:
// the candidate whose override cells all use slot m of their column pools.
func (t *Task) methodCandidate(i, m int) int {
	overrides := t.Repairs.Overrides[i]
	if len(overrides) == 1 {
		return 0
	}
	bestJ, bestScore := 0, -1
	for j, ov := range overrides {
		score := 0
		for ci, cell := range ov {
			if t.cellIsMethodSlot(ci, cell, m) {
				score++
			}
		}
		if score > bestScore {
			bestJ, bestScore = j, score
		}
	}
	return bestJ
}

// cellIsMethodSlot reports whether cell equals slot m of column ci's repair
// pool.
func (t *Task) cellIsMethodSlot(ci int, cell table.Cell, m int) bool {
	col := t.Dirty.Cols[ci]
	if col.Kind == table.Numeric {
		pool := repair.NumericCandidates(col)
		if m >= len(pool) {
			m = len(pool) - 1
		}
		return cell.Num == pool[m].Num
	}
	pool := repair.CategoricalCandidates(col, 4)
	if m >= len(pool) {
		m = len(pool) - 1
	}
	return cell.Cat == pool[m].Cat
}

// ensembleValAccuracy scores a majority-vote ensemble on the validation set.
func (t *Task) ensembleValAccuracy(worlds [][][]float64, members []int) (float64, error) {
	return t.ensembleAccuracy(worlds, members, t.ValX, t.Val.Labels)
}

// ensembleTestAccuracy scores a majority-vote ensemble on the test set.
func (t *Task) ensembleTestAccuracy(worlds [][][]float64, members []int) (float64, error) {
	return t.ensembleAccuracy(worlds, members, t.TestX, t.Test.Labels)
}

func (t *Task) ensembleAccuracy(worlds [][][]float64, members []int, qs [][]float64, y []int) (float64, error) {
	if len(members) == 0 {
		return 0, fmt.Errorf("cleaning: empty ensemble")
	}
	preds := make([][]int, len(members))
	for mi, m := range members {
		clf, err := newClassifier(t, worlds[m])
		if err != nil {
			return 0, err
		}
		preds[mi] = clf.PredictAll(qs)
	}
	correct := 0
	numLabels := t.Dirty.NumLabels
	for qi := range qs {
		tally := make([]int, numLabels)
		for mi := range members {
			tally[preds[mi][qi]]++
		}
		best, bestC := 0, -1
		for l, c := range tally {
			if c > bestC {
				best, bestC = l, c
			}
		}
		if best == y[qi] {
			correct++
		}
	}
	return float64(correct) / float64(len(qs)), nil
}

// HoloCleanResult reports the HoloClean-style imputation outcome.
type HoloCleanResult struct {
	Accuracy float64
	// Imputed counts the cells filled.
	Imputed int
}

// HoloCleanStyle imputes each missing cell with its most probable value
// given the row's observed attributes, estimated from the R most similar
// complete-in-that-column rows (distance-weighted vote / mean). It is a
// downstream-oblivious probabilistic cleaner standing in for HoloClean (see
// DESIGN.md §4): like HoloClean it picks the most likely fix per cell
// without regard to the classifier, and like in the paper it may close a
// negative gap.
func HoloCleanStyle(t *Task, neighbors int) (*HoloCleanResult, error) {
	if neighbors <= 0 {
		neighbors = 10
	}
	cleaned := t.Dirty.Clone()
	imputed := 0
	for ci, c := range cleaned.Cols {
		if c.MissingCount() == 0 {
			continue
		}
		for i := 0; i < c.Len(); i++ {
			if !c.Missing[i] {
				continue
			}
			v, ok := imputeCell(t.Dirty, i, ci, neighbors)
			if ok {
				if c.Kind == table.Numeric {
					c.Nums[i] = v.Num
				} else {
					c.Cats[i] = v.Cat
				}
				c.Missing[i] = false
				imputed++
			}
		}
	}
	// Any cell that could not be imputed falls back to defaults.
	cleaned = table.ImputeDefaults(cleaned)
	acc, err := t.AccuracyOn(cleaned)
	if err != nil {
		return nil, err
	}
	return &HoloCleanResult{Accuracy: acc, Imputed: imputed}, nil
}

// imputeCell estimates cell (row, col) from the `neighbors` nearest rows
// (by distance over mutually observed other attributes) that observe col.
func imputeCell(t *table.Table, row, col, neighbors int) (table.Cell, bool) {
	type scored struct {
		idx  int
		dist float64
	}
	var cands []scored
	for r := 0; r < t.NumRows(); r++ {
		if r == row || t.Cols[col].Missing[r] {
			continue
		}
		d, n := rowDistance(t, row, r, col)
		if n == 0 {
			continue
		}
		cands = append(cands, scored{idx: r, dist: d / float64(n)})
	}
	if len(cands) == 0 {
		return table.Cell{}, false
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].idx < cands[b].idx
	})
	if len(cands) > neighbors {
		cands = cands[:neighbors]
	}
	c := t.Cols[col]
	if c.Kind == table.Numeric {
		num, den := 0.0, 0.0
		for _, s := range cands {
			w := 1 / (1e-6 + s.dist)
			num += float64(w * c.Nums[s.idx])
			den += w
		}
		return table.NumCell(num / den), true
	}
	votes := map[string]float64{}
	for _, s := range cands {
		votes[c.Cats[s.idx]] += 1 / (1e-6 + s.dist)
	}
	best, bestW := "", -1.0
	for v, w := range votes {
		if w > bestW || (w == bestW && v < best) {
			best, bestW = v, w
		}
	}
	return table.CatCell(best), true
}

// rowDistance sums normalized per-cell distances over attributes (≠ skipCol)
// observed in both rows; n is the number of comparable attributes.
func rowDistance(t *table.Table, a, b, skipCol int) (dist float64, n int) {
	for ci, c := range t.Cols {
		if ci == skipCol || c.Missing[a] || c.Missing[b] {
			continue
		}
		if c.Kind == table.Numeric {
			st := c.Stats()
			scale := st.Max - st.Min
			if scale <= 0 {
				scale = 1
			}
			dist += math.Abs(c.Nums[a]-c.Nums[b]) / scale
		} else if c.Cats[a] != c.Cats[b] {
			dist += 1
		}
		n++
	}
	return dist, n
}
