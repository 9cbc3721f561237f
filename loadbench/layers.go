package main

import (
	"fmt"
	"path/filepath"
)

// ratio is num/den, or 0 when nothing happened (den == 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedLayers maps each per-layer timing metric to the span it reads.
var tracedLayers = []struct{ metric, span string }{
	{"core.engine_build", "core.NewEngine"},
	{"core.sweep", "core.Engine.Counts"},
	{"core.q1", "core.Engine.CheckMM"},
	{"serve.session_query", "serve.Session.Query"},
	{"selection.select", "selection.Selector.SelectBatch"},
	{"selection.pin", "selection.Selector.Pin"},
	{"durable.append", "durable.Store.Append"},
}

// layerMetrics derives the --trace 1 metrics: counter diffs from the
// untraced run, span timings from the traced one. The spans are written to
// trace-<workload>-<seed>.jsonl in out.
func layerMetrics(cfg runConfig, out string, m *measurement) (map[string]metric, error) {
	res := counterMetrics(m)
	tr := m.traced
	path := filepath.Join(out, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.tr.write(path); err != nil {
		return nil, err
	}
	layers := tr.tr.byName()
	for _, l := range tracedLayers {
		st := layers[l.span]
		if st == nil {
			st = &layerStats{}
		}
		res[l.metric+"_ms"] = metric{st.p50(), "ms"}
		res[l.metric+".calls"] = metric{float64(st.calls), "count"}
		res[l.metric+".busy_ms"] = metric{st.busyMS, "ms"}
	}
	res["serve.handler_self_ms"] = metric{0, "ms"}
	if len(tr.handlerSelf) > 0 {
		res["serve.handler_self_ms"] = metric{median(tr.handlerSelf), "ms"}
	}
	res["serve.handler_self.calls"] = metric{float64(len(tr.handlerSelf)), "count"}
	traced, untraced := percentile(tr.queryMS, 50), percentile(m.open.latency, 50)
	res["trace.query_ms.p50"] = metric{traced, "ms"}
	res["trace.overhead_ms"] = metric{traced - untraced, "ms"}
	res["trace.spans"] = metric{float64(len(tr.tr.snapshot())), "count"}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.tr.snapshot()), path)
	return res, nil
}

// counterMetrics diffs cpserve's lifetime /v1/stats counters around the
// timed phase. Pool ratios use only lifetime counters (engine builds,
// result-cache hits and misses, stream and WAL counters): the per-entry
// retained and plan aggregates drop the counts of evicted engines.
func counterMetrics(m *measurement) map[string]metric {
	b, a := m.before, m.after
	var builds int64
	for _, p := range a.Pools[datasetName] {
		builds += p.EngineBuilds
	}
	for _, p := range b.Pools[datasetName] {
		builds -= p.EngineBuilds
	}
	points := float64(a.Streams.PointsYielded - b.Streams.PointsYielded)
	out := map[string]metric{
		"serve.points":                  {points, "count"},
		"serve.pool.builds_per_point":   {ratio(float64(builds), points), "ratio"},
		"serve.streams.reordered_ratio": {ratio(float64(a.Streams.Reordered-b.Streams.Reordered), points), "ratio"},
		"serve.result_cache.lookups":    {0, "count"},
		"serve.result_cache.hit_ratio":  {0, "ratio"},
	}
	if a.ResultCache != nil && b.ResultCache != nil {
		hits := float64(a.ResultCache.Hits - b.ResultCache.Hits)
		lookups := hits + float64(a.ResultCache.Misses-b.ResultCache.Misses)
		out["serve.result_cache.lookups"] = metric{lookups, "count"}
		out["serve.result_cache.hit_ratio"] = metric{ratio(hits, lookups), "ratio"}
	}
	// Every clean-live session is created and retired inside the timed
	// phase, so its own counters need no diff.
	sqPoints := float64(m.sessionQueries.Queries)
	r := m.sessionQueries.Retained
	scanned, avoided := float64(r.CandidatesScanned), float64(r.CandidatesAvoided)
	out["core.retained.session_points"] = metric{sqPoints, "count"}
	out["core.retained.scan_ratio"] = metric{ratio(scanned, scanned+avoided), "ratio"}
	out["core.retained.memo_hits_per_query"] = metric{ratio(float64(r.MemoHits), sqPoints), "ratio"}
	out["core.retained.delta_scans_per_query"] = metric{ratio(float64(r.DeltaScans), sqPoints), "ratio"}
	out["core.retained.full_scans_per_query"] = metric{ratio(float64(r.FullScans), sqPoints), "ratio"}
	steps := float64(m.steps)
	out["clean.steps"] = metric{steps, "count"}
	out["clean.run_s"] = metric{0, "s"}
	if len(m.cleanRuns) > 0 {
		out["clean.run_s"] = metric{median(m.cleanRuns), "s"}
	}
	out["selection.examined_per_step"] = metric{ratio(float64(m.examined), steps), "ratio"}
	var fsyncs, fsyncMicros float64
	if a.WAL != nil && b.WAL != nil {
		fsyncs = float64(a.WAL.FsyncCount - b.WAL.FsyncCount)
		fsyncMicros = float64(a.WAL.FsyncTotalMicros - b.WAL.FsyncTotalMicros)
	}
	out["durable.fsyncs"] = metric{fsyncs, "count"}
	out["durable.fsyncs_per_step"] = metric{ratio(fsyncs, steps), "ratio"}
	out["durable.fsync_us"] = metric{ratio(fsyncMicros, fsyncs), "us"}
	out["loadgen.late_ms.p99"] = metric{percentile(m.open.late, 99), "ms"}
	out["loadgen.error_ratio"] = metric{ratio(float64(m.t.failed.Load()), float64(m.t.attempted.Load())), "ratio"}
	return out
}
