// Command benchcompare diffs two benchjson files (see internal/tools/benchjson)
// and fails when a benchmark regressed: any benchmark present in both files
// whose current ns/op exceeds the baseline's by more than -pct percent exits
// nonzero, with a one-line verdict per compared benchmark either way.
//
//	benchcompare -baseline bench/BENCH_baseline.json -current BENCH_2026-08-07.json \
//	             -pct 15 -match Q2_SSDC_K3_N1000,BatchQ2_Incremental
//
// Both files must carry the same host stamp (nproc, GOMAXPROCS, Go version,
// GOOS/GOARCH): numbers from differently shaped hosts or toolchains do not
// compare, so a mismatch — or a file with no stamp — exits nonzero before
// any benchmark is diffed.
//
// -match restricts the comparison to benchmarks whose name contains one of
// the comma-separated substrings (empty = compare everything). Benchmarks
// missing from one side are reported as warnings, not failures: a rename or
// a new benchmark should update the committed baseline, not break CI.
// Improvements beyond the threshold are called out too — a committed
// baseline that lags a big win under-protects every later change.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/tools/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body: it returns the process exit code — 0 when every
// compared benchmark is within the threshold, 1 on a regression, a host
// mismatch or an unreadable file, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcompare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "baseline benchjson file (required)")
	currentPath := fs.String("current", "", "current benchjson file (required)")
	pct := fs.Float64("pct", 15, "ns/op regression threshold in percent")
	match := fs.String("match", "", "comma-separated name substrings to compare (empty = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(stderr, "benchcompare: -baseline and -current are required")
		return 2
	}
	baseFile, err := benchfmt.Load(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchcompare:", err)
		return 1
	}
	curFile, err := benchfmt.Load(*currentPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchcompare:", err)
		return 1
	}
	if diff := baseFile.Host.Mismatch(curFile.Host); diff != "" {
		fmt.Fprintf(stderr, "benchcompare: refusing to compare runs from different hosts (baseline/current: %s); refresh the baseline on this host with 'make bench-baseline'\n", diff)
		return 1
	}
	base := bestOf(baseFile.Results)
	var filters []string
	for _, f := range strings.Split(*match, ",") {
		if f = strings.TrimSpace(f); f != "" {
			filters = append(filters, f)
		}
	}

	regressions := 0
	compared := 0
	for _, c := range bestOf(curFile.Results) {
		if !matches(c.Name, filters) {
			continue
		}
		b, ok := base[c.Name]
		if !ok {
			fmt.Fprintf(stdout, "benchcompare: WARN %s: not in baseline (new benchmark? refresh the baseline)\n", c.Name)
			continue
		}
		delete(base, c.Name)
		if b.NsPerOp <= 0 || c.NsPerOp <= 0 {
			continue
		}
		compared++
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		switch {
		case delta > *pct:
			fmt.Fprintf(stdout, "benchcompare: FAIL %s: %.0f ns/op vs baseline %.0f (%+.1f%%, threshold %+.1f%%)\n",
				c.Name, c.NsPerOp, b.NsPerOp, delta, *pct)
			regressions++
		case delta < -*pct:
			fmt.Fprintf(stdout, "benchcompare: ok   %s: %.0f ns/op vs baseline %.0f (%+.1f%%) — faster than baseline; consider refreshing it\n",
				c.Name, c.NsPerOp, b.NsPerOp, delta)
		default:
			fmt.Fprintf(stdout, "benchcompare: ok   %s: %.0f ns/op vs baseline %.0f (%+.1f%%)\n",
				c.Name, c.NsPerOp, b.NsPerOp, delta)
		}
	}
	for name := range base {
		if matches(name, filters) {
			fmt.Fprintf(stdout, "benchcompare: WARN %s: in baseline but not in current run (renamed or deleted? refresh the baseline)\n", name)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "benchcompare: %d of %d compared benchmark(s) regressed more than %.1f%%\n", regressions, compared, *pct)
		return 1
	}
	fmt.Fprintf(stdout, "benchcompare: %d benchmark(s) within %.1f%% of baseline\n", compared, *pct)
	return 0
}

// bestOf indexes results by name. A -count run repeats each name; the
// minimum ns/op wins — the best-of-N statistic is far more robust to
// scheduler noise than any single sample, so both sides of the diff should
// be produced with the same -count.
func bestOf(results []benchfmt.Result) map[string]benchfmt.Result {
	out := make(map[string]benchfmt.Result, len(results))
	for _, r := range results {
		if prev, ok := out[r.Name]; ok && prev.NsPerOp > 0 && (r.NsPerOp <= 0 || prev.NsPerOp <= r.NsPerOp) {
			continue
		}
		out[r.Name] = r
	}
	return out
}

func matches(name string, filters []string) bool {
	if len(filters) == 0 {
		return true
	}
	for _, f := range filters {
		if strings.Contains(name, f) {
			return true
		}
	}
	return false
}
