package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/knn"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_answers.txt from the current code")

const goldenPath = "testdata/golden_answers.txt"

// TestGoldenAnswerBits pins the exact IEEE bits of every SS-DC answer —
// Counts, CountsMC, HypothesisCounts and Entropy — under a seeded pin
// sequence, for truncated and untruncated engines, on a small Supreme task
// (K ∈ {1,3,5}) and a three-label dataset (K ∈ {1,3,4,7}). Any change to
// the order or rounding of the answer path's float operations shows up
// here as a changed hex word. Regenerate with
//
//	go test ./internal/core -run TestGoldenAnswerBits -update
//
// only for a change that means to move answer bits.
func TestGoldenAnswerBits(t *testing.T) {
	var buf bytes.Buffer
	spec, err := experiments.SpecByName("Supreme")
	if err != nil {
		t.Fatal(err)
	}
	task, err := experiments.BuildTask(spec, experiments.Tiny, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 5} {
		goldenDataset(&buf, fmt.Sprintf("supreme/K%d", k), task.Dataset(), task.Kernel, task.ValX[:3], k, 1700+int64(k))
	}
	d, points := threeLabelDataset(rand.New(rand.NewSource(1701)))
	for _, k := range []int{1, 3, 4, 7} {
		goldenDataset(&buf, fmt.Sprintf("3label/K%d", k), d, knn.NegEuclidean{}, points, k, 1710+int64(k))
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(buf.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs\n got: %s\nwant: %s", filepath.Base(goldenPath), i+1, g, w)
		}
	}
}

// goldenDataset appends the answers for each test point under K to buf:
// an untruncated and a truncated engine each walk the same seeded pin
// sequence, and every step records Counts and CountsMC with and without a
// per-query override, the override's Entropy, and HypothesisCounts of one
// unpinned row.
func goldenDataset(buf *bytes.Buffer, name string, d *dataset.Incomplete, kernel knn.Kernel, points [][]float64, k int, seed int64) {
	for p, pt := range points {
		for _, ec := range []struct {
			tag string
			e   *core.Engine
		}{
			{"full", core.NewEngine(d, kernel, pt)},
			{"trunc", core.NewTruncatedEngine(d, kernel, pt, k)},
		} {
			e := ec.e
			sc := e.MustScratch(k)
			rng := rand.New(rand.NewSource(seed + int64(p)))
			for step := 0; step < 8; step++ {
				prefix := fmt.Sprintf("%s p%d %s s%d", name, p, ec.tag, step)
				orow := rng.Intn(e.N())
				ocand := rng.Intn(e.Instance().M(orow))
				writeBits(buf, prefix+" counts", e.Counts(sc, -1, -1))
				writeBits(buf, prefix+" countsmc", e.CountsMC(sc, -1, -1))
				writeBits(buf, prefix+" counts/override", e.Counts(sc, orow, ocand))
				writeBits(buf, prefix+" countsmc/override", e.CountsMC(sc, orow, ocand))
				writeBits(buf, prefix+" entropy", []float64{e.Entropy(sc, orow, ocand)})
				if row := goldenFreeRow(rng, e); row >= 0 {
					for j, h := range e.HypothesisCounts(sc, row) {
						writeBits(buf, fmt.Sprintf("%s hyp r%d j%d", prefix, row, j), h)
					}
				}
				goldenPinStep(rng, e)
			}
		}
	}
}

// goldenFreeRow draws an unpinned row with at least two candidates, or −1.
func goldenFreeRow(rng *rand.Rand, e *core.Engine) int {
	var free []int
	for i := 0; i < e.N(); i++ {
		if e.Pin(i) < 0 && e.Instance().M(i) > 1 {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	return free[rng.Intn(len(free))]
}

// goldenPinStep applies one seeded pin mutation: mostly fresh pins, with
// the occasional unpin and full reset.
func goldenPinStep(rng *rand.Rand, e *core.Engine) {
	row := rng.Intn(e.N())
	switch op := rng.Intn(10); {
	case op == 0:
		e.SetPin(row, -1)
	case op == 1 && rng.Intn(3) == 0:
		e.ResetPins()
	default:
		e.SetPin(row, rng.Intn(e.Instance().M(row)))
	}
}

// writeBits appends one line: the label, then each value's Float64bits in
// hex.
func writeBits(buf *bytes.Buffer, label string, vs []float64) {
	buf.WriteString(label)
	for _, v := range vs {
		fmt.Fprintf(buf, " %016x", math.Float64bits(v))
	}
	buf.WriteByte('\n')
}

// threeLabelDataset draws a 40-row, three-label incomplete dataset over a
// coarse grid (so similarities tie across rows) with 1–6 candidates per
// row, and three test points.
func threeLabelDataset(rng *rand.Rand) (*dataset.Incomplete, [][]float64) {
	grid := []float64{0, 0.25, 1.0 / 3, 0.5, 1}
	point := func() []float64 {
		p := make([]float64, 3)
		for f := range p {
			if rng.Intn(4) == 0 {
				p[f] = rng.NormFloat64()
			} else {
				p[f] = grid[rng.Intn(len(grid))]
			}
		}
		return p
	}
	examples := make([]dataset.Example, 40)
	for i := range examples {
		cands := make([][]float64, 1+rng.Intn(6))
		for j := range cands {
			cands[j] = point()
		}
		label := i
		if i >= 3 {
			label = rng.Intn(3)
		}
		examples[i] = dataset.Example{Candidates: cands, Label: label}
	}
	return dataset.MustNew(examples, 3), [][]float64{point(), point(), point()}
}
