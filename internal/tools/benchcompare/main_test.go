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

// TestRefusesMismatchedHosts checks benchcompare exits nonzero, naming the
// host difference, when the two files' stamps differ in any field or one
// file has no stamp — even when the numbers themselves would pass — and
// still compares same-host files.
func TestRefusesMismatchedHosts(t *testing.T) {
	host := benchfmt.Host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}
	results := []benchfmt.Result{{Name: "BenchmarkScan-2", Iterations: 50, NsPerOp: 1000}}
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
	slow := []benchfmt.Result{{Name: "BenchmarkScan-2", Iterations: 50, NsPerOp: 2000}}
	if code, _ := compare(writeBench(t, "slow.json", benchfmt.File{Host: host, Results: slow})); code != 1 {
		t.Fatalf("same host, 2x slower: exit %d, want 1", code)
	}
}

// TestReportsHostSpeeds checks benchcompare prints both files' host speeds
// and warns — without failing — when they differ by more than 1.25×, and
// stays quiet within it or when a file records no speed.
func TestReportsHostSpeeds(t *testing.T) {
	host := benchfmt.Host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}
	results := []benchfmt.Result{{Name: "BenchmarkScan-2", Iterations: 50, NsPerOp: 1000}}
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
