// Package repair generates candidate repairs for missing cells and builds
// the induced incomplete dataset — the paper's §5.1 protocol: "For missing
// cells in numerical columns, we consider five candidate repairs: the
// minimum value, the 25-th percentile, the mean value, the 75-th percentile
// and the maximum value of the column. For missing cells in categorical
// columns, we also consider five candidate repairs: the top 4 most frequent
// categories and a dummy category named 'other category'. If a record i has
// multiple missing values, then the Cartesian product of all candidate
// repairs for all missing cells forms C_i."
package repair

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/table"
)

// OtherCategory is the dummy repair for categorical cells, representing any
// category outside the frequent ones; encoders map it to their shared
// "other" one-hot slot.
const OtherCategory = "__other__"

// Options configures candidate generation.
type Options struct {
	// TopCategories is the number of frequent categories offered as repairs
	// (plus OtherCategory). Default 4.
	TopCategories int
	// MaxRowCandidates caps the Cartesian product size per row. Rows whose
	// product would exceed the cap keep the first MaxRowCandidates
	// combinations in odometer order. Default 125 (three missing cells).
	MaxRowCandidates int
}

func (o Options) withDefaults() Options {
	if o.TopCategories <= 0 {
		o.TopCategories = 4
	}
	if o.MaxRowCandidates <= 0 {
		o.MaxRowCandidates = 125
	}
	return o
}

// NumericCandidates returns the paper's five-point repair set for a numeric
// column (deduplicated, order preserved).
func NumericCandidates(c *table.Column) []table.Cell {
	st := c.Stats()
	raw := []float64{st.Min, st.P25, st.Mean, st.P75, st.Max}
	var out []table.Cell
	for _, v := range raw {
		dup := false
		for _, e := range out {
			if e.Num == v {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, table.NumCell(v))
		}
	}
	if len(out) == 0 {
		out = append(out, table.NumCell(0))
	}
	return out
}

// CategoricalCandidates returns the top-k frequent categories plus the
// OtherCategory dummy.
func CategoricalCandidates(c *table.Column, topK int) []table.Cell {
	var out []table.Cell
	for _, cc := range c.TopCategories(topK) {
		out = append(out, table.CatCell(cc.Value))
	}
	out = append(out, table.CatCell(OtherCategory))
	return out
}

// Repairs holds the incomplete dataset induced by a dirty table plus the
// bookkeeping CPClean needs: per-row candidate overrides and the oracle's
// ground-truth choice.
type Repairs struct {
	// Dataset is the encoded incomplete dataset (one example per train row).
	Dataset *dataset.Incomplete
	// Encoder maps table rows to the feature space of Dataset's candidates.
	Encoder *table.Encoder
	// Overrides[i][j] is the cell assignment (column → repair) that produced
	// candidate j of row i; nil for certain rows' single candidate.
	Overrides [][]map[int]table.Cell
	// Truth[i] is the oracle's candidate for row i: the candidate closest to
	// the ground-truth values (the paper's simulated human).
	Truth []int
	// DirtyRows lists rows with more than one candidate.
	DirtyRows []int
}

// Generate builds the candidate sets for a dirty training table. truth must
// be the complete version of the same table (used only to position the
// oracle); pass nil if no oracle is needed (Truth will be zeros). enc must
// have been fitted on data with the same schema (typically the dirty table
// itself). The dirty table's label alphabet must be within
// dataset.MaxNumLabels of its rows: the table usually comes from a CSV file,
// and the dataset built here keeps per-label state.
func Generate(dirty, truth *table.Table, enc *table.Encoder, opts Options) (*Repairs, error) {
	opts = opts.withDefaults()
	if truth != nil && truth.NumRows() != dirty.NumRows() {
		return nil, fmt.Errorf("repair: truth has %d rows, dirty has %d", truth.NumRows(), dirty.NumRows())
	}
	if dirty.NumLabels > dataset.MaxNumLabels(dirty.NumRows()) {
		return nil, fmt.Errorf("repair: %d labels exceed max(2, %d rows)", dirty.NumLabels, dirty.NumRows())
	}
	// Per-column candidate pools and the oracle's numeric scales (each
	// column's observed range), computed once.
	pools := make([][]table.Cell, dirty.NumCols())
	scales := make([]float64, dirty.NumCols())
	for ci, c := range dirty.Cols {
		if c.MissingCount() == 0 {
			continue
		}
		if c.Kind == table.Numeric {
			pools[ci] = NumericCandidates(c)
			st := c.Stats()
			scales[ci] = st.Max - st.Min
			if scales[ci] <= 0 {
				scales[ci] = 1
			}
		} else {
			pools[ci] = CategoricalCandidates(c, opts.TopCategories)
		}
	}

	n := dirty.NumRows()
	out := &Repairs{
		Encoder:   enc,
		Overrides: make([][]map[int]table.Cell, n),
		Truth:     make([]int, n),
	}
	examples := make([]dataset.Example, n)
	for i := 0; i < n; i++ {
		missCols := missingColumns(dirty, i)
		if len(missCols) == 0 {
			examples[i] = dataset.Example{
				Candidates: [][]float64{enc.EncodeRow(dirty, i, nil)},
				Label:      dirty.Labels[i],
			}
			out.Overrides[i] = []map[int]table.Cell{nil}
			continue
		}
		combos := cartesian(missCols, pools, opts.MaxRowCandidates)
		cands := make([][]float64, len(combos))
		for j, ov := range combos {
			cands[j] = enc.EncodeRow(dirty, i, ov)
		}
		examples[i] = dataset.Example{Candidates: cands, Label: dirty.Labels[i]}
		out.Overrides[i] = combos
		if len(combos) > 1 {
			out.DirtyRows = append(out.DirtyRows, i)
		}
		if truth != nil {
			out.Truth[i] = closestToTruth(truth, i, combos, pools, scales)
		}
	}
	d, err := dataset.New(examples, dirty.NumLabels)
	if err != nil {
		return nil, err
	}
	out.Dataset = d
	return out, nil
}

// missingColumns lists the columns with a missing cell in row i.
func missingColumns(t *table.Table, i int) []int {
	var out []int
	for ci, c := range t.Cols {
		if c.Missing[i] {
			out = append(out, ci)
		}
	}
	return out
}

// cartesian enumerates cell assignments over the missing columns in odometer
// order, capped at limit.
func cartesian(missCols []int, pools [][]table.Cell, limit int) []map[int]table.Cell {
	idx := make([]int, len(missCols))
	var out []map[int]table.Cell
	for {
		ov := make(map[int]table.Cell, len(missCols))
		for k, ci := range missCols {
			ov[ci] = pools[ci][idx[k]]
		}
		out = append(out, ov)
		if len(out) >= limit {
			return out
		}
		k := len(missCols) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(pools[missCols[k]]) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return out
		}
	}
}

// closestToTruth implements the simulated human: among the row's candidates,
// pick the one minimizing per-cell distance to the ground truth. Numeric
// cells use |v − truth| divided by scales[ci], the dirty column's observed
// range (1 when empty); categorical cells cost 0 on exact match, 0.5 for
// OtherCategory when the truth is not a frequent category (OtherCategory is
// the honest answer then), and 1 otherwise.
func closestToTruth(truth *table.Table, row int, combos []map[int]table.Cell, pools [][]table.Cell, scales []float64) int {
	best, bestDist := 0, math.Inf(1)
	for j, ov := range combos {
		d := 0.0
		for ci, cell := range ov {
			col := truth.Cols[ci]
			if cell.Kind == table.Numeric {
				d += math.Abs(cell.Num-col.Nums[row]) / scales[ci]
			} else {
				tv := col.Cats[row]
				switch {
				case cell.Cat == tv:
					// exact match
				case cell.Cat == OtherCategory && !inPool(pools[ci], tv):
					d += 0.5
				default:
					d += 1
				}
			}
		}
		if d < bestDist {
			best, bestDist = j, d
		}
	}
	return best
}

// inPool reports whether category v is one of the frequent repair values.
func inPool(pool []table.Cell, v string) bool {
	for _, c := range pool {
		if c.Kind == table.Categorical && c.Cat == v {
			return true
		}
	}
	return false
}
