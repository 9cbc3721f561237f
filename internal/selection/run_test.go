package selection

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/knn"
)

// recheckAll answers certainty for every validation point of r from
// scratch under the current pins: MM for binary labels, threshold
// certainty over a fresh tally sweep otherwise.
func recheckAll(t *testing.T, r *Run) []bool {
	t.Helper()
	sc := r.scratches.Get()
	defer r.scratches.Put(sc)
	out := make([]bool, len(r.engines))
	for v, e := range r.engines {
		if e.Instance().NumLabels == 2 {
			c, err := e.IsCertainMM(r.k)
			if err != nil {
				t.Fatal(err)
			}
			out[v] = c
		} else {
			out[v] = core.IsCertain(e.Counts(sc, -1, -1))
		}
	}
	return out
}

// TestRunCertaintyMatchesFullRecheck steps whole Runs and, after every
// Clean, compares the run's certainty mask — refreshed only where
// core.Retained.UnchangedSince fails — with a re-check of every point from
// scratch. It covers binary and three-label data, the UseMC ablation,
// batches of three, RandomClean's path (no Select: a binary run's memos are
// never computed, a three-label run's only by its certainty checks) and
// pins made on the engines behind the run's back. After every Clean of a
// run without such pins it also checks that the run's world count, kept by
// division, equals the first engine's product over its unpinned rows.
func TestRunCertaintyMatchesFullRecheck(t *testing.T) {
	cases := []struct {
		name      string
		numLabels int
		cfg       Config
		batch     int
		random    bool // clean random candidates without selecting
		outOfBand bool // also pin a random candidate on every engine directly
	}{
		{name: "binary", numLabels: 2, batch: 1},
		{name: "multiclass", numLabels: 3, batch: 1},
		{name: "multiclass-mc", numLabels: 3, cfg: Config{UseMC: true}, batch: 1},
		{name: "binary-batch3", numLabels: 2, batch: 3},
		{name: "multiclass-batch3", numLabels: 3, batch: 3},
		{name: "random-binary", numLabels: 2, random: true},
		{name: "random-multiclass", numLabels: 3, random: true},
		{name: "binary-out-of-band", numLabels: 2, batch: 1, outOfBand: true},
		{name: "multiclass-out-of-band", numLabels: 3, batch: 3, outOfBand: true},
	}
	keptTotal := 0
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seed := int64(2601 + 10*ci)
			d := randDataset(t, 60, 3, c.numLabels, 2, 0.7, seed)
			rng := rand.New(rand.NewSource(seed + 1))
			truth := make([]int, d.N())
			for i := range truth {
				truth[i] = rng.Intn(d.Examples[i].M())
			}
			c.cfg.K, c.cfg.Parallelism = 3, 2
			r, err := NewRun(d, knn.NegEuclidean{}, randPoints(16, 2, seed+2), truth,
				func(tmpl *core.Engine) (*core.ScratchPool, error) { return core.NewScratchPool(tmpl, 3) }, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				want := recheckAll(t, r)
				for v := range want {
					if r.certain[v] != want[v] {
						t.Fatalf("%s: point %d certain=%v, full re-check %v", when, v, r.certain[v], want[v])
					}
				}
				if n := len(r.Candidates()); r.left != n {
					t.Fatalf("%s: %d rows left, %d candidates", when, r.left, n)
				}
			}
			check("NewRun")
			steps, kept := 0, 0
			for !r.Done() {
				if steps > d.N() {
					t.Fatal("run did not terminate")
				}
				if cands := r.Candidates(); c.outOfBand && len(cands) > 1 {
					oob := cands[rng.Intn(len(cands))]
					r.cleaned[oob] = true // never offered to Select again
					r.left--
					cand := rng.Intn(d.Examples[oob].M())
					for _, e := range r.engines {
						e.SetPin(oob, cand)
					}
				}
				var rows []int
				if c.random {
					cands := r.Candidates()
					rows = []int{cands[rng.Intn(len(cands))]}
				} else {
					rows, _, _ = r.Select(c.batch)
				}
				for _, row := range rows {
					before := r.engines[0].PinGeneration()
					if _, err := r.Clean(row); err != nil {
						t.Fatal(err)
					}
					steps++
					check(fmt.Sprintf("step %d", steps))
					if got, want := r.WorldCount(), r.engines[0].WorldCount(); !c.outOfBand && got.Cmp(want) != 0 {
						t.Fatalf("step %d: run world count %s, engine %s", steps, got, want)
					}
					for v, m := range r.sel.memos {
						if !r.certain[v] && m.rt.UnchangedSince(before) {
							kept++ // the pin left point v's answers unchanged
						}
					}
				}
			}
			if c.random && c.numLabels == 2 && kept != 0 {
				t.Fatalf("a binary run that never selects kept %d memos", kept)
			}
			if steps < 3 {
				t.Fatalf("only %d steps: the run exercised nothing", steps)
			}
			keptTotal += kept
			t.Logf("%d steps, %d uncertain points unchanged by a pin", steps, kept)
		})
	}
	if keptTotal == 0 {
		t.Fatal("no pin ever left an uncertain point unchanged; every check ran")
	}
}
