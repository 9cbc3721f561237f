// Package dataset implements the paper's incomplete-dataset model
// (Definition 1): a finite set of examples whose feature vector is known
// only up to a candidate set C_i, together with the induced possible-world
// semantics (Definition 2).
package dataset

import (
	"fmt"
	"math"
	"math/big"
)

// Example is one training example with incomplete information: the true
// feature vector is one of Candidates (the paper's C_i); the label is known.
type Example struct {
	// Candidates holds the possible feature vectors x_{i,1..M_i}. A clean
	// (certain) example has exactly one candidate.
	Candidates [][]float64
	// Label is the class label y_i in [0, NumLabels).
	Label int
}

// M returns the candidate count |C_i|.
func (e *Example) M() int { return len(e.Candidates) }

// IsCertain reports whether the example has a single candidate.
func (e *Example) IsCertain() bool { return len(e.Candidates) == 1 }

// Incomplete is the paper's incomplete dataset D = {(C_i, y_i)}.
type Incomplete struct {
	Examples  []Example
	NumLabels int
	// boxes holds each example's candidate box, the per-feature [lo, hi]
	// range of its candidates, flat: example i's lo at boxes[2*i*dim:] and
	// its hi dim values later. New derives it from the examples (it is never
	// persisted); a struct literal has none.
	boxes []float64
	dim   int
	// facts holds each example's RowFact. New derives it next to the boxes
	// (never persisted); a struct literal has none, and RowFacts computes
	// them on each call.
	facts []RowFact
}

// RowFact is what an engine build reads of one example besides its
// candidates: its label, its candidate count M and its rank among the
// examples with the same label (the example's leaf in a per-label tree).
// Every engine over one dataset shares one RowFact array.
type RowFact struct {
	Label, M, Rank int32
}

// MaxNumLabels is the largest label alphabet a dataset of rows examples
// may declare when it comes from outside the process — a training CSV, a
// registration body, a journaled record: at most one label per row, and
// never fewer than 2. Engines and Scratches keep per-label state, so a
// larger alphabet would let a few bytes of input allocate without bound.
// New does not hold datasets to it: Go callers may declare more labels
// than rows.
func MaxNumLabels(rows int) int { return max(2, rows) }

// New validates and constructs an incomplete dataset.
func New(examples []Example, numLabels int) (*Incomplete, error) {
	if numLabels < 2 {
		return nil, fmt.Errorf("dataset: need at least 2 labels, got %d", numLabels)
	}
	var dim = -1
	for i, e := range examples {
		if len(e.Candidates) == 0 {
			return nil, fmt.Errorf("dataset: example %d has an empty candidate set", i)
		}
		if e.Label < 0 || e.Label >= numLabels {
			return nil, fmt.Errorf("dataset: example %d label %d out of range [0,%d)", i, e.Label, numLabels)
		}
		for j, c := range e.Candidates {
			if dim == -1 {
				dim = len(c)
			}
			if len(c) != dim {
				return nil, fmt.Errorf("dataset: example %d candidate %d has dim %d, want %d", i, j, len(c), dim)
			}
		}
	}
	return &Incomplete{
		Examples:  examples,
		NumLabels: numLabels,
		boxes:     candidateBoxes(examples, dim),
		dim:       dim,
		facts:     rowFacts(examples, numLabels),
	}, nil
}

// rowFacts computes every example's RowFact.
func rowFacts(examples []Example, numLabels int) []RowFact {
	facts := make([]RowFact, len(examples))
	rank := make([]int32, numLabels)
	for i := range examples {
		l := examples[i].Label
		facts[i] = RowFact{Label: int32(l), M: int32(examples[i].M()), Rank: rank[l]}
		rank[l]++
	}
	return facts
}

// RowFacts returns every example's RowFact: the array New derived, shared
// by every caller and never to be written, or for a struct literal a fresh
// one computed on the spot.
func (d *Incomplete) RowFacts() []RowFact {
	if d.facts != nil {
		return d.facts
	}
	return rowFacts(d.Examples, d.NumLabels)
}

// candidateBoxes computes every example's candidate box (see
// Incomplete.boxes). A NaN feature makes that feature's range NaN.
func candidateBoxes(examples []Example, dim int) []float64 {
	boxes := make([]float64, 2*len(examples)*dim)
	for i := range examples {
		lo := boxes[2*i*dim : (2*i+1)*dim]
		hi := boxes[(2*i+1)*dim : (2*i+2)*dim]
		cands := examples[i].Candidates
		copy(lo, cands[0])
		copy(hi, cands[0])
		for _, c := range cands[1:] {
			for f, v := range c {
				lo[f] = math.Min(lo[f], v)
				hi[f] = math.Max(hi[f], v)
			}
		}
	}
	return boxes
}

// Box returns example i's candidate box: lo[f] ≤ c[f] ≤ hi[f] for every
// candidate c and feature f. ok is false when d carries no boxes — a struct
// literal rather than a value built by New. The slices alias d.
func (d *Incomplete) Box(i int) (lo, hi []float64, ok bool) {
	if d.boxes == nil {
		return nil, nil, false
	}
	b := d.boxes[2*i*d.dim : (2*i+2)*d.dim]
	return b[:d.dim], b[d.dim:], true
}

// MustNew is New but panics on error.
func MustNew(examples []Example, numLabels int) *Incomplete {
	d, err := New(examples, numLabels)
	if err != nil {
		panic(err)
	}
	return d
}

// FromComplete wraps a complete dataset (one candidate per example).
func FromComplete(x [][]float64, y []int, numLabels int) (*Incomplete, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("dataset: %d vectors, %d labels", len(x), len(y))
	}
	ex := make([]Example, len(x))
	for i := range x {
		ex[i] = Example{Candidates: [][]float64{x[i]}, Label: y[i]}
	}
	return New(ex, numLabels)
}

// N returns the number of examples.
func (d *Incomplete) N() int { return len(d.Examples) }

// MaxM returns the largest candidate-set size.
func (d *Incomplete) MaxM() int {
	m := 0
	for i := range d.Examples {
		if mm := d.Examples[i].M(); mm > m {
			m = mm
		}
	}
	return m
}

// TotalCandidates returns Σ_i |C_i|.
func (d *Incomplete) TotalCandidates() int {
	s := 0
	for i := range d.Examples {
		s += d.Examples[i].M()
	}
	return s
}

// UncertainRows returns the indices of examples with more than one candidate.
func (d *Incomplete) UncertainRows() []int {
	var out []int
	for i := range d.Examples {
		if !d.Examples[i].IsCertain() {
			out = append(out, i)
		}
	}
	return out
}

// WorldCount returns |I_D| = Π_i |C_i| as a big integer.
func (d *Incomplete) WorldCount() *big.Int {
	total := big.NewInt(1)
	for i := range d.Examples {
		total.Mul(total, big.NewInt(int64(d.Examples[i].M())))
	}
	return total
}

// Pin returns a copy of d with example row fixed to its cand-th candidate
// (the effect of cleaning that row to a specific repair). The copy shares
// d's boxes: the pinned candidate lies inside its row's old box. Its row
// facts are d's with the row's M set to 1.
func (d *Incomplete) Pin(row, cand int) *Incomplete {
	ex := append([]Example(nil), d.Examples...)
	ex[row] = Example{
		Candidates: [][]float64{d.Examples[row].Candidates[cand]},
		Label:      d.Examples[row].Label,
	}
	var facts []RowFact
	if d.facts != nil {
		facts = append([]RowFact(nil), d.facts...)
		facts[row].M = 1
	}
	return &Incomplete{Examples: ex, NumLabels: d.NumLabels, boxes: d.boxes, dim: d.dim, facts: facts}
}

// World materializes the possible world selected by choice (choice[i] is the
// candidate index for example i) as parallel feature/label slices.
func (d *Incomplete) World(choice []int) ([][]float64, []int) {
	x := make([][]float64, d.N())
	y := make([]int, d.N())
	for i := range d.Examples {
		x[i] = d.Examples[i].Candidates[choice[i]]
		y[i] = d.Examples[i].Label
	}
	return x, y
}
