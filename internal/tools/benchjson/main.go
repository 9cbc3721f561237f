// Command benchjson converts `go test -bench` text output into a BENCH_*.json
// file (internal/tools/benchfmt): a stamp of the host it runs on — nproc,
// GOMAXPROCS, Go version, GOOS/GOARCH — the host's speed on a fixed loop
// (benchfmt.SpeedLoopMS), and one object per benchmark line:
//
//	{"name": "BenchmarkBatchQ2_Incremental-16",
//	 "iterations": 1, "ns_per_op": 1234567.0,
//	 "metrics": {"scans/op": 8, "scans-avoided/op": 2}}
//
// Run it in the environment the benchmarks ran in (as `make bench` does),
// so the stamp describes that run.
//
// ns_per_op is pulled out of the metric pairs because it is the one every
// line has and the one trend dashboards key on; every other "value unit"
// pair (b.ReportMetric and the -benchmem columns) lands under metrics
// verbatim. Non-benchmark lines (ok/PASS/goos/...) are ignored, so the raw
// `go test` transcript can be fed in unfiltered.
//
// Usage: benchjson -in bench.out -out BENCH_2026-08-07.json
// With -in/-out omitted it filters stdin to stdout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/tools/benchfmt"
)

func main() {
	in := flag.String("in", "", "benchmark output to parse (default stdin)")
	out := flag.String("out", "", "JSON file to write (default stdout)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	results, err := parse(r)
	if err != nil {
		fatal(err)
	}

	f := benchfmt.File{Host: benchfmt.CurrentHost(), Speed: benchfmt.SpeedLoopMS(), Results: results}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

// parse extracts benchmark result lines: "BenchmarkName-P  N  v1 u1  v2 u2 ...".
func parse(r io.Reader) ([]benchfmt.Result, error) {
	results := []benchfmt.Result{} // non-nil so an empty run encodes as [] not null
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." headers without a result column
		}
		res := benchfmt.Result{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %q: bad value %q", fields[0], fields[i])
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				res.NsPerOp = v
				continue
			}
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
