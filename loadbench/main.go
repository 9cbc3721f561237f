// Command loadbench is the repository's end-to-end benchmark. It starts the
// cpserve binary built from this tree as a child process on loopback, drives
// one workload against it with open-loop and closed-loop HTTP load from a
// single process, checks every answer, and prints the metrics as one JSON
// line (the last line of standard output).
//
// run.sh builds cpserve and loadbench, then runs it; invoked directly:
//
//	loadbench -cpserve ./cpserve -work DIR --workload batch-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics: counter diffs from cpserve's /v1/stats around
// the timed phase, plus span timings from a separate traced in-process run
// (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	cpserve  string // path to the cpserve binary
	work     string // scratch directory for data dirs, logs and traces
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(runConfig, *inputs) (*measurement, error){
	"batch-cold": runBatchCold,
	"batch-hot":  runBatchHot,
	"clean-live": runCleanLive,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "batch-cold, batch-hot or clean-live")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics (adds a traced in-process run)")
	flag.StringVar(&cfg.cpserve, "cpserve", "", "cpserve binary to benchmark")
	flag.StringVar(&cfg.work, "work", "", "directory for cpserve data dirs, logs and trace output")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.cpserve == "" || cfg.work == "" || cfg.seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: loadbench -cpserve BIN -work DIR --workload batch-cold|batch-hot|clean-live --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := benchmark(cfg, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func benchmark(cfg runConfig, run func(runConfig, *inputs) (*measurement, error)) (*result, error) {
	out := cfg.work
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	in, err := genInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	speedBefore := hostLoopMS()
	m, err := run(cfg, in)
	if err != nil {
		return nil, err
	}
	speedAfter := hostLoopMS()
	res := &result{Attempted: m.t.attempted.Load(), Failed: m.t.failed.Load()}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if first := m.t.firstErr(); first != nil {
		fmt.Fprintln(os.Stderr, "loadbench: first failure:", first)
	}
	printHost(speedBefore, speedAfter)
	printSummary(cfg.workload, m)
	if cfg.trace {
		if res.Metrics, err = layerMetrics(cfg, out, m); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEnd(m)
	}
	return res, nil
}

// printHost records the host shape, its speed before and after the run,
// and the cpserve flags with the result.
func printHost(speedBefore, speedAfter float64) {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s cpserve flags=%q (all others default)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpserveArgs("127.0.0.1:<free port>", "<fresh dir>"))
	fmt.Printf("host: speed loop %.2f ms before the run, %.2f ms after\n", speedBefore, speedAfter)
}

// loopSink keeps hostLoopMS's loop from being optimised away.
var loopSink uint64

// hostLoopMS times a fixed integer loop that uses no code of the
// repository (median of 3). A shared host's speed drifts by up to 2× over
// minutes (README.md); printed with every result, it tells a slow host
// from a slow program.
func hostLoopMS() float64 {
	var ts []float64
	for range 3 {
		t0 := time.Now()
		x := uint64(1)
		for i := 0; i < 20_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		loopSink += x
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts)
}

// lateLimit is how late the open-loop generator may dispatch (p99) before a
// run is flagged — or a quarter of query_ms.p50, if that is more: beyond it,
// query latencies partly measure the generator.
const lateLimit = time.Millisecond

// printSummary prints the run's headline numbers under their workload-
// specific names, with sample counts, and flags a generator that fell
// behind its schedule.
func printSummary(workload string, m *measurement) {
	fmt.Printf("%s: %d open-loop queries (windowed p50 %.3f ms, p90 %.3f ms), %d closed-loop requests, setup %.3f s (median of %.3f), error_ratio %d/%d\n",
		workload, len(m.open.latency), windowed(m.open, 50), windowed(m.open, 90),
		len(flatten(m.closed)), median(m.setup), m.setup, m.t.failed.Load(), m.t.attempted.Load())
	if workload == "clean-live" {
		fmt.Printf("clean-live: %d sessions, %d steps, step_ms.p50 %.3f, step_ms.p90 %.3f, clean_run_s %.3f, steps/s per session %.3f\n",
			len(m.cleanRuns), m.steps, medianOf(m.closed, 50), medianOf(m.closed, 90), m.cleanRuns, m.rates)
	} else {
		fmt.Printf("%s: points_per_s per round %.1f, closed loop on %d connections\n", workload, m.rates, maxConns)
	}
	late, limit := percentile(m.open.late, 99), max(ms(lateLimit), windowed(m.open, 50)/4)
	fmt.Printf("loadgen: late_ms.p99 %.3f over %d dispatches\n", late, len(m.open.late))
	if late > limit {
		fmt.Printf("WARNING: the load generator fell behind its schedule (late_ms.p99 %.3f > %.3f)\n", late, limit)
	}
}

// endToEnd derives the --trace 0 metrics. The open-loop p90 is printed on
// the summary line only: on batch-hot it does not repeat within the
// benchmark's bound across runs on a shared 2-core host (README.md).
func endToEnd(m *measurement) map[string]metric {
	return map[string]metric{
		"setup_s":       {median(m.setup), "s"},
		"query_ms.p50":  {windowed(m.open, 50), "ms"},
		"closed_ms.p50": {medianOf(m.closed, 50), "ms"},
		"closed_ms.p90": {medianOf(m.closed, 90), "ms"},
		"closed_per_s":  {median(m.rates), "1/s"},
		"server_rss_mb": {m.rssMB, "MB"},
	}
}
