package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tools/benchfmt"
)

func writeBench(t *testing.T, name string, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// series returns one result per ns value, all named name.
func series(name string, ns ...float64) []benchfmt.Result {
	out := make([]benchfmt.Result, len(ns))
	for i, v := range ns {
		out[i] = benchfmt.Result{Name: name, Iterations: 50, NsPerOp: v}
	}
	return out
}

// steady returns Pairs results named name, each ns ns/op.
func steady(name string, ns float64) []benchfmt.Result {
	vals := make([]float64, Pairs)
	for i := range vals {
		vals[i] = ns
	}
	return series(name, vals...)
}

// TestRefusesMismatchedHosts checks benchcompare exits nonzero, naming the
// host difference, when the two files' stamps differ in any field or one
// file has no stamp — even when the numbers themselves would pass — and
// still compares same-host files.
func TestRefusesMismatchedHosts(t *testing.T) {
	host := benchfmt.Host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}
	results := steady("BenchmarkScan-2", 1000)
	base := writeBench(t, "base.json", benchfmt.File{Host: host, Results: results})
	compare := func(current string) (int, string) {
		var stderr strings.Builder
		code := run([]string{"-baseline", base, "-current", current}, io.Discard, &stderr)
		return code, stderr.String()
	}
	if code, msg := compare(writeBench(t, "same.json", benchfmt.File{Host: host, Results: results})); code != 0 {
		t.Fatalf("same host, same numbers: exit %d (%s)", code, msg)
	}
	for name, mutate := range map[string]func(*benchfmt.Host){
		"nproc":      func(h *benchfmt.Host) { h.NumCPU = 8 },
		"gomaxprocs": func(h *benchfmt.Host) { h.GOMAXPROCS = 1 },
		"go version": func(h *benchfmt.Host) { h.GoVersion = "go1.23.4" },
		"goos":       func(h *benchfmt.Host) { h.GOOS = "darwin" },
		"goarch":     func(h *benchfmt.Host) { h.GOARCH = "arm64" },
	} {
		other := host
		mutate(&other)
		code, msg := compare(writeBench(t, "other.json", benchfmt.File{Host: other, Results: results}))
		if code == 0 || !strings.Contains(msg, "different hosts") {
			t.Fatalf("%s differs: exit %d, stderr %q; want a nonzero refusal", name, code, msg)
		}
	}
	if code, msg := compare(writeBench(t, "legacy.json", results)); code == 0 || !strings.Contains(msg, "regenerate") {
		t.Fatalf("unstamped result array: exit %d, stderr %q; want a nonzero refusal", code, msg)
	}
	if code, msg := compare(writeBench(t, "nostamp.json", benchfmt.File{Results: results})); code == 0 || !strings.Contains(msg, "no host stamp") {
		t.Fatalf("file without a stamp: exit %d, stderr %q; want a nonzero refusal", code, msg)
	}
	slow := steady("BenchmarkScan-2", 2000)
	if code, _ := compare(writeBench(t, "slow.json", benchfmt.File{Host: host, Results: slow})); code != 1 {
		t.Fatalf("same host, 2x slower: exit %d, want 1", code)
	}
}

// TestReportsHostSpeeds checks benchcompare prints both files' host speeds
// and warns — without failing — when they differ by more than 1.25×, and
// stays quiet within it or when a file records no speed.
func TestReportsHostSpeeds(t *testing.T) {
	host := benchfmt.Host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}
	results := steady("BenchmarkScan-2", 1000)
	file := func(name string, speed float64) string {
		return writeBench(t, name, benchfmt.File{Host: host, Speed: speed, Results: results})
	}
	base := file("base.json", 20)
	for _, tc := range []struct {
		speed float64
		line  string
		warn  bool
	}{
		{24, "host speed loop 20.0 ms baseline, 24.0 ms current", false},
		{26, "host speed loop 20.0 ms baseline, 26.0 ms current", true},
		{15, "host speed loop 20.0 ms baseline, 15.0 ms current", true},
		{0, "host speed loop 20.0 ms baseline, ? ms current", false},
	} {
		var stdout strings.Builder
		if code := run([]string{"-baseline", base, "-current", file("cur.json", tc.speed)}, &stdout, io.Discard); code != 0 {
			t.Fatalf("speed %v: exit %d, want 0 (a speed difference only warns)", tc.speed, code)
		}
		out := stdout.String()
		if !strings.Contains(out, tc.line) {
			t.Fatalf("speed %v: output %q lacks %q", tc.speed, out, tc.line)
		}
		if got := strings.Contains(out, "WARN host speed"); got != tc.warn {
			t.Fatalf("speed %v: output %q; want a speed warning: %v", tc.speed, out, tc.warn)
		}
	}
}

// TestPairedSignTest checks the verdict: a benchmark fails only when the
// current run is slower by more than -pct in at least FailPairs of its
// Pairs pairs, however slow its single worst pair is; a benchmark with
// fewer than Pairs results on a side fails, since it could never reach the
// failure count; and a benchmark missing from one run only warns.
func TestPairedSignTest(t *testing.T) {
	host := benchfmt.Host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}
	base := writeBench(t, "base.json", benchfmt.File{Host: host, Results: append(
		steady("BenchmarkScan-2", 100), series("BenchmarkGone-2", 100)...)})
	for _, tc := range []struct {
		name string
		cur  []float64
		code int
	}{
		{"8 of 10 pairs 20% slower", []float64{120, 120, 120, 120, 120, 120, 120, 120, 100, 100}, 1},
		{"7 of 10 pairs 20% slower", []float64{120, 120, 120, 120, 120, 120, 120, 90, 100, 100}, 0},
		{"10 of 10 pairs 10% slower", []float64{110, 110, 110, 110, 110, 110, 110, 110, 110, 110}, 0},
		{"one pair 5x slower", []float64{500, 90, 90, 90, 90, 90, 90, 90, 90, 90}, 0},
		{"2 equal pairs", []float64{100, 100}, 1},
	} {
		cur := writeBench(t, "cur.json", benchfmt.File{Host: host, Results: series("BenchmarkScan-2", tc.cur...)})
		var stdout strings.Builder
		code := run([]string{"-baseline", base, "-current", cur, "-pct", "15"}, &stdout, io.Discard)
		if code != tc.code {
			t.Fatalf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, stdout.String())
		}
		if !strings.Contains(stdout.String(), "WARN BenchmarkGone-2") {
			t.Fatalf("%s: no warning for the benchmark missing from the current run:\n%s", tc.name, stdout.String())
		}
	}
}
