// Command benchcompare diffs two benchjson files (see internal/tools/benchjson)
// holding the same benchmarks run in alternating pairs on one host
// (scripts/bench_compare.sh runs the merge base and HEAD that way) and fails
// when a benchmark regressed. The i-th result of a name in -baseline pairs
// with its i-th result in -current; every benchmark present in both files
// must have exactly Pairs results on each side. A benchmark fails when the
// current run is slower by more than -pct percent in at least FailPairs of
// its Pairs pairs — a sign test, which a host whose speed drifts between
// pairs cannot trip by itself the way a single best-of comparison can. The
// exit code is nonzero on any failure, with a one-line verdict per compared
// benchmark either way.
//
//	benchcompare -baseline base.json -current head.json -pct 15
//
// Both files must carry the same host stamp (nproc, GOMAXPROCS, Go version,
// GOOS/GOARCH): numbers from differently shaped hosts or toolchains do not
// compare, so a mismatch — or a file with no stamp — exits nonzero before
// any benchmark is diffed. Both files' host speeds (benchfmt.SpeedLoopMS)
// are printed, with a warning — not a failure — when one is more than
// 1.25× the other: a verdict then may reflect the host, not the code.
//
// A benchmark missing from one side is reported as a warning, not a
// failure: the merge base cannot run a benchmark HEAD adds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/tools/benchfmt"
)

// Pairs is the number of alternating pairs each benchmark must have, and
// FailPairs the number of them in which a slower current run fails it.
const (
	Pairs     = 10
	FailPairs = 8
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body: it returns the process exit code — 0 when every
// compared benchmark passes the sign test, 1 on a regression, a host
// mismatch, a wrong pair count or an unreadable file, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcompare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "baseline benchjson file (required)")
	currentPath := fs.String("current", "", "current benchjson file (required)")
	pct := fs.Float64("pct", 15, "ns/op regression threshold in percent")
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
		fmt.Fprintf(stderr, "benchcompare: refusing to compare runs from different hosts (baseline/current: %s); run both sides on one host\n", diff)
		return 1
	}
	reportSpeeds(stdout, baseFile.Speed, curFile.Speed)
	return comparePairs(stdout, baseFile.Results, curFile.Results, *pct)
}

// comparePairs is the verdict: per benchmark, the i-th baseline and current
// results form pair i, and the benchmark regressed when the current one is
// slower by more than pct percent in at least FailPairs pairs. A benchmark
// without exactly Pairs results on both sides fails too: fewer pairs could
// never reach the failure count. Returns the exit code.
func comparePairs(w io.Writer, baseResults, curResults []benchfmt.Result, pct float64) int {
	series := func(results []benchfmt.Result) (map[string][]float64, []string) {
		byName := map[string][]float64{}
		var names []string
		for _, r := range results {
			if _, ok := byName[r.Name]; !ok {
				names = append(names, r.Name)
			}
			byName[r.Name] = append(byName[r.Name], r.NsPerOp)
		}
		return byName, names
	}
	base, baseNames := series(baseResults)
	cur, names := series(curResults)
	failures, compared := 0, 0
	for _, name := range names {
		b, ok := base[name]
		if !ok {
			fmt.Fprintf(w, "benchcompare: WARN %s: not in the baseline run (new benchmark?)\n", name)
			continue
		}
		c := cur[name]
		compared++
		if len(b) != Pairs || len(c) != Pairs {
			fmt.Fprintf(w, "benchcompare: FAIL %s: %d baseline and %d current results, want %d pairs\n", name, len(b), len(c), Pairs)
			failures++
			continue
		}
		slower, faster := 0, 0
		for i := range Pairs {
			switch {
			case c[i] > b[i]*(1+pct/100):
				slower++
			case c[i] < b[i]:
				faster++
			}
		}
		verdict := "ok  "
		if slower >= FailPairs {
			verdict = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "benchcompare: %s %s: slower by >%.1f%% in %d of %d pairs, faster in %d\n", verdict, name, pct, slower, Pairs, faster)
	}
	for _, name := range baseNames {
		if _, ok := cur[name]; !ok {
			fmt.Fprintf(w, "benchcompare: WARN %s: in the baseline run but not the current one (renamed or deleted?)\n", name)
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "benchcompare: %d of %d compared benchmark(s) failed the %d-of-%d-pair sign test at %.1f%%\n", failures, compared, FailPairs, Pairs, pct)
		return 1
	}
	fmt.Fprintf(w, "benchcompare: %d benchmark(s) pass the %d-of-%d-pair sign test at %.1f%%\n", compared, FailPairs, Pairs, pct)
	return 0
}

// speedWarnRatio is the host-speed ratio above which benchcompare warns.
const speedWarnRatio = 1.25

// reportSpeeds prints both files' host speeds and warns when they differ
// by more than speedWarnRatio.
func reportSpeeds(w io.Writer, base, cur float64) {
	if base <= 0 || cur <= 0 {
		fmt.Fprintf(w, "benchcompare: host speed loop %s ms baseline, %s ms current (unknown: no comparison)\n", speedText(base), speedText(cur))
		return
	}
	fmt.Fprintf(w, "benchcompare: host speed loop %.1f ms baseline, %.1f ms current\n", base, cur)
	if r := max(base, cur) / min(base, cur); r > speedWarnRatio {
		fmt.Fprintf(w, "benchcompare: WARN host speed differs %.2fx (over %.2fx): verdicts below may reflect the host, not the code\n", r, speedWarnRatio)
	}
}

// speedText formats a recorded speed, "?" for none.
func speedText(ms float64) string {
	if ms <= 0 {
		return "?"
	}
	return fmt.Sprintf("%.1f", ms)
}
