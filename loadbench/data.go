package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/knn"
)

// Data shape shared by every workload (see README.md): the paper's Supreme
// generator, 1000 training rows with 20% MNAR missing cells and at most 25
// candidates per row, K=3, neg-Euclidean kernel, 40 validation points.
const (
	datasetName = "supreme"
	trainRows   = 1000
	valPoints   = 40
	// testRows sizes the test-point pool: 18792 distinct points, enough for
	// a 30 s batch-cold run up to a closed-loop rate of about 1400 points/s
	// (three times today's); beyond that the run says it ran out.
	testRows    = 20000
	missingRate = 0.20
	// dataSeed fixes the generated split (training rows, validation points,
	// oracle and the pool of test points), so every run measures the same
	// cleaning problem; the run's --seed draws the traffic over it.
	dataSeed     = 1
	batchPoints  = 8  // points per dataset query
	sessionBatch = 16 // points per session query (clean-live)
)

// inputs is everything a run sends to cpserve, generated before anything is
// timed. cpserve only ever sees bytes derived from it.
type inputs struct {
	data   *dataset.Incomplete
	kernel knn.Kernel
	k      int
	// register is the POST /v1/datasets body.
	register []byte
	// tests are the distinct encoded test points, in the seed's order.
	tests [][]float64
	// vals and truth make up the clean-session request; cleanBody is its
	// encoded POST /v1/datasets/{name}/clean body.
	vals      [][]float64
	truth     []int
	cleanBody []byte
}

// wire types mirror the cpserve JSON API.
type (
	wireExample struct {
		Candidates [][]float64 `json:"candidates"`
		Label      int         `json:"label"`
	}
	wireRegister struct {
		Name      string        `json:"name"`
		NumLabels int           `json:"num_labels"`
		Examples  []wireExample `json:"examples"`
		Kernel    struct {
			Name string `json:"name"`
		} `json:"kernel"`
		K int `json:"k"`
	}
	wireQuery struct {
		Points [][]float64 `json:"points"`
	}
	wireClean struct {
		Truth     []int       `json:"truth"`
		ValPoints [][]float64 `json:"val_points"`
	}
)

// genInputs builds the task with experiments.BuildTask from dataSeed, encodes
// the registration and clean-session bodies, and orders the distinct test
// points by a shuffle drawn from seed: every workload takes its query
// points from the front of that order.
func genInputs(seed int64) (*inputs, error) {
	spec, err := experiments.SpecByName("Supreme")
	if err != nil {
		return nil, err
	}
	scale := experiments.Scale{Name: "loadbench", TrainN: trainRows, ValN: valPoints, TestN: testRows, MissingCellRate: missingRate}
	task, err := experiments.BuildTask(spec, scale, dataSeed, 0)
	if err != nil {
		return nil, fmt.Errorf("building task: %w", err)
	}
	src := task.Dataset()
	reg := wireRegister{Name: datasetName, NumLabels: src.NumLabels, K: task.K}
	reg.Kernel.Name = "neg-euclidean"
	examples := make([]dataset.Example, len(src.Examples))
	for i, ex := range src.Examples {
		reg.Examples = append(reg.Examples, wireExample{Candidates: ex.Candidates, Label: ex.Label})
		examples[i] = dataset.Example{Candidates: ex.Candidates, Label: ex.Label}
	}
	// The reference dataset goes through the same constructor cpserve's
	// registration handler uses.
	data, err := dataset.New(examples, src.NumLabels)
	if err != nil {
		return nil, err
	}
	in := &inputs{data: data, kernel: knn.NegEuclidean{}, k: task.K, vals: task.ValX, truth: task.OracleWorld()}
	if in.register, err = json.Marshal(reg); err != nil {
		return nil, err
	}
	if in.cleanBody, err = json.Marshal(wireClean{Truth: in.truth, ValPoints: in.vals}); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(task.TestX))
	for _, p := range task.TestX {
		if key := pointKey(p); !seen[key] {
			seen[key] = true
			in.tests = append(in.tests, p)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(in.tests), func(i, j int) {
		in.tests[i], in.tests[j] = in.tests[j], in.tests[i]
	})
	return in, nil
}

// pointKey is a test point's exact bit pattern, for de-duplication and for
// matching answers against reference results.
func pointKey(p []float64) string {
	b := make([]byte, 8*len(p))
	for i, v := range p {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return string(b)
}

// queryBody encodes one batch query.
func queryBody(pts [][]float64) ([]byte, error) {
	return json.Marshal(wireQuery{Points: pts})
}

// zipfRanks draws n ranks in [0, distinct) with P(rank r) ∝ (1+r)^-s, from
// its own seeded source.
func zipfRanks(seed int64, s float64, distinct, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(distinct-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
