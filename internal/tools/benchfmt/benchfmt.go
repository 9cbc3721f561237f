// Package benchfmt is the BENCH_*.json file format shared by benchjson
// (which writes it) and benchcompare (which diffs two of them): the
// benchmark results plus a stamp of the host that produced them.
//
//	{"host": {"nproc": 2, "gomaxprocs": 2, "go_version": "go1.24.0",
//	          "goos": "linux", "goarch": "amd64"},
//	 "speed_loop_ms": 21.4,
//	 "results": [{"name": "BenchmarkScan/supreme/trunc/K3-2",
//	              "iterations": 50, "ns_per_op": 51234,
//	              "metrics": {"B/op": 0, "allocs/op": 0}}]}
//
// Numbers from hosts of a different shape do not compare — CP-query speed
// depends on the core count and the toolchain — so the stamp travels with
// every file. A host of the same shape can still run slower or faster from
// one period to the next (a shared host drifts by up to 2×), so each file
// also records the host's speed on a fixed loop.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// Host identifies the machine shape and toolchain a benchmark run used.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// CurrentHost stamps the running process's host. Tools run with `go run`
// next to `go test`, so the toolchain and environment match the run's.
func CurrentHost() Host {
	return Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// Mismatch describes how h differs from other ("" when the stamps agree).
func (h Host) Mismatch(other Host) string {
	if h == other {
		return ""
	}
	return fmt.Sprintf("nproc %d/%d, GOMAXPROCS %d/%d, %s/%s, %s/%s vs %s/%s",
		h.NumCPU, other.NumCPU, h.GOMAXPROCS, other.GOMAXPROCS, h.GoVersion, other.GoVersion,
		h.GOOS, h.GOARCH, other.GOOS, other.GOARCH)
}

// Result is one benchmark line: ns/op pulled out, every other "value unit"
// pair (b.ReportMetric and the -benchmem columns) under Metrics verbatim.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// File is one BENCH_*.json document.
type File struct {
	Host Host `json:"host"`
	// Speed is SpeedLoopMS on the host when the file was written, 0 in
	// older files. It is not part of Host: stamps compare by shape, and
	// the speed only qualifies the numbers.
	Speed   float64  `json:"speed_loop_ms,omitempty"`
	Results []Result `json:"results"`
}

// loopSink keeps SpeedLoopMS's loop from being optimised away.
var loopSink uint64

// SpeedLoopMS times a fixed integer loop that uses no code of the
// repository — the loop loadbench prints with every result, 20M steps of a
// 64-bit linear congruential generator — and returns the median of 3 runs
// in milliseconds: lower is a faster host.
func SpeedLoopMS() float64 {
	var ts []float64
	for range 3 {
		t0 := time.Now()
		x := uint64(1)
		for i := 0; i < 20_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		loopSink += x
		ts = append(ts, float64(time.Since(t0))/float64(time.Millisecond))
	}
	slices.Sort(ts)
	return ts[1]
}

// Load reads a BENCH_*.json file. A file without a host stamp — including
// the bare result array older benchjson builds wrote — is an error: its
// numbers cannot be placed on a host.
func Load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w (regenerate it with benchjson)", path, err)
	}
	if f.Host == (Host{}) {
		return File{}, fmt.Errorf("%s: no host stamp (regenerate it with benchjson)", path)
	}
	return f, nil
}
