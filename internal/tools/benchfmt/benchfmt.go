// Package benchfmt is the BENCH_*.json file format shared by benchjson
// (which writes it) and benchcompare (which diffs two of them): the
// benchmark results plus a stamp of the host that produced them.
//
//	{"host": {"nproc": 2, "gomaxprocs": 2, "go_version": "go1.24.0",
//	          "goos": "linux", "goarch": "amd64"},
//	 "results": [{"name": "BenchmarkScan/supreme/trunc/K3-2",
//	              "iterations": 50, "ns_per_op": 51234,
//	              "metrics": {"B/op": 0, "allocs/op": 0}}]}
//
// Numbers from hosts of a different shape do not compare — CP-query speed
// depends on the core count and the toolchain — so the stamp travels with
// every file.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
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
	Host    Host     `json:"host"`
	Results []Result `json:"results"`
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
