package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// The benchmark's inputs are a pure function of the seed: the same seed
// gives byte-identical request bodies, a different seed different query
// traffic over the same dataset and clean session.
func TestInputsDependOnlyOnSeed(t *testing.T) {
	a1, err := genInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := genInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(2)
	if err != nil {
		t.Fatal(err)
	}
	bodies := func(in *inputs, seed int64) [][]byte {
		t.Helper()
		q, err := queryBody(in.tests[:batchPoints])
		if err != nil {
			t.Fatal(err)
		}
		_, hot, err := hotTraffic(seed, in.tests[:hotDistinct])
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{in.register, in.cleanBody, q, hot[0], hot[len(hot)-1]}
	}
	x1, x2, y := bodies(a1, 1), bodies(a2, 1), bodies(b, 2)
	names := []string{"register", "clean", "batch-cold query", "first batch-hot query", "last batch-hot query"}
	for i, name := range names {
		if !bytes.Equal(x1[i], x2[i]) {
			t.Errorf("%s body differs between two runs with seed 1", name)
		}
		if same, want := bytes.Equal(x1[i], y[i]), i < 2; same != want {
			t.Errorf("%s body: same for seeds 1 and 2 = %v, want %v", name, same, want)
		}
	}
	if len(a1.tests) < hotDistinct {
		t.Errorf("only %d distinct test points", len(a1.tests))
	}
	seen := make(map[string]bool)
	for _, p := range a1.tests {
		if seen[pointKey(p)] {
			t.Fatalf("test point %v repeated", p)
		}
		seen[pointKey(p)] = true
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v ms, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(xs[:1], 99); got != 100 {
		t.Errorf("p99 of one sample = %v, want 100", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestZipfRanks(t *testing.T) {
	const n, distinct = 20000, 64
	r := zipfRanks(7, hotZipfS, distinct, n)
	if again := zipfRanks(7, hotZipfS, distinct, n); !equalInts(r, again) {
		t.Fatal("same seed gave different draws")
	}
	if other := zipfRanks(8, hotZipfS, distinct, n); equalInts(r, other) {
		t.Fatal("different seeds gave the same draws")
	}
	counts := make([]int, distinct)
	for _, x := range r {
		if x < 0 || x >= distinct {
			t.Fatalf("rank %d out of [0, %d)", x, distinct)
		}
		counts[x]++
	}
	// P(r) ∝ (1+r)^-1.1: rank 0 is drawn 2^1.1 ≈ 2.1× as often as rank 1,
	// and far more often than the tail.
	if counts[0] < 2*counts[1]*9/10 || counts[1] <= counts[7] || counts[7] <= counts[distinct-1] {
		t.Errorf("counts are not Zipf-shaped: %v", counts)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Self time subtracts the union of the children's intervals, once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	ns := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	tr.spans = []span{
		{ID: 1, Name: "root", Start: ns(0), End: ns(100)},
		{ID: 2, Parent: 1, Name: "kid", Start: ns(10), End: ns(30)},
		{ID: 3, Parent: 1, Name: "kid", Start: ns(20), End: ns(40)},  // overlaps 2
		{ID: 4, Parent: 1, Name: "kid", Start: ns(90), End: ns(120)}, // runs past the root
	}
	layers := tr.byName()
	if got := layers["root"].busyMS; got != 60 {
		t.Errorf("root self time %v ms, want 60", got)
	}
	if got := layers["kid"]; got.calls != 3 || got.busyMS != 70 {
		t.Errorf("kid: %d calls, %v ms busy; want 3 calls, 70 ms", got.calls, got.busyMS)
	}
}

// The benchmark's committed files must not be matched by .gitignore (the
// repository ignores bench*.json, BENCH_*.json and *.bench).
func TestFilesNotGitIgnored(t *testing.T) {
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		files[i] = filepath.Join("loadbench", f)
	}
	files = append(files, "BENCHMARK.json")
	if _, err := os.Stat("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("git", append([]string{"check-ignore", "--no-index", "-v"}, files...)...)
	cmd.Dir = ".."
	out, err := cmd.Output()
	var exit *exec.ExitError
	switch {
	case err == nil:
		t.Errorf("git ignores benchmark files:\n%s", out)
	case errors.As(err, &exit) && exit.ExitCode() == 1:
		// Exit 1: none of the files is ignored.
	default:
		t.Skipf("git check-ignore unavailable here (not a git work tree?): %v", err)
	}
}
