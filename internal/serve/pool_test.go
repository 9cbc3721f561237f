package serve

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/knn"
)

// TestEngineCacheByteBudget checks the LRU is byte-counted, not just
// entry-counted: with a budget sized for only a few engines, a sweep of
// distinct points keeps the cache near the budget (never the 256-entry
// default), evictions fire, and answers stay correct.
func TestEngineCacheByteBudget(t *testing.T) {
	d := randDataset(t, 60, 3, 2, 3, 0.5, 930)
	s := NewServer(Config{Parallelism: 2})
	defer s.Close()
	ds, err := s.Register("d", d, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Size the budget from a real engine+memo footprint: room for ~3.
	points := randPoints(24, 3, 931)
	if _, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points[:1]}); err != nil {
		t.Fatal(err)
	}
	oneEntry := ds.Stats()[0].EngineBytes
	if oneEntry <= 0 {
		t.Fatalf("engine bytes not accounted: %+v", ds.Stats())
	}
	budget := oneEntry*3 + oneEntry/2

	s2 := NewServer(Config{Parallelism: 2, MaxEngineBytes: budget})
	defer s2.Close()
	if _, err := s2.Register("d", d, nil, 3); err != nil {
		t.Fatal(err)
	}
	want, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.BatchQuery(context.Background(), "d", BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		for y, v := range want.Results[i].Fractions {
			if got.Results[i].Fractions[y] != v {
				t.Fatalf("point %d label %d: budgeted cache answered %v, unbudgeted %v",
					i, y, got.Results[i].Fractions[y], v)
			}
		}
	}
	ds2, _ := s2.Dataset("d")
	st := ds2.Stats()[0]
	if st.EnginesCached > 4 {
		t.Fatalf("byte budget ignored: %d engines cached (budget fits ~3), bytes=%d budget=%d",
			st.EnginesCached, st.EngineBytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 3-engine budget across 24 distinct points: %+v", st)
	}
	if st.EngineBytes > budget+oneEntry {
		t.Fatalf("cache bytes %d stayed above budget %d", st.EngineBytes, budget)
	}
}

// TestEngineLRUHoldsMoreTruncatedEngines checks the byte accounting follows
// truncation: pooled engines are truncated for the pool's K and report only
// the candidates they keep, so one byte budget holds more of them than of
// untruncated engines.
func TestEngineLRUHoldsMoreTruncatedEngines(t *testing.T) {
	d := randDataset(t, 300, 4, 2, 3, 0.5, 932)
	points := randPoints(40, 3, 933)
	kernel := knn.NegEuclidean{}
	budget := 8 * core.NewEngine(d, kernel, points[0]).ApproxBytes()
	held := func(build func(pt []float64) *core.Engine) int {
		c := newLRUBudget[*core.Engine](0, budget)
		for i, pt := range points {
			e := build(pt)
			c.put(fmt.Sprint(i), e, e.ApproxBytes())
		}
		return c.len()
	}
	full := held(func(pt []float64) *core.Engine { return core.NewEngine(d, kernel, pt) })
	trunc := held(func(pt []float64) *core.Engine { return core.NewTruncatedEngine(d, kernel, pt, 3) })
	if trunc <= full {
		t.Fatalf("a %d-byte budget holds %d truncated engines and %d untruncated ones", budget, trunc, full)
	}
}

// TestConfigDefaultsIdempotent pins the sentinel contract: withDefaults is
// applied both at Open and again on request paths, so a second application
// must change nothing — in particular the negative "disable/unlimited"
// sentinels must survive instead of being re-inflated into the defaults.
func TestConfigDefaultsIdempotent(t *testing.T) {
	cases := []Config{
		{},
		{EngineCacheSize: -1, MaxEngineBytes: -1},
		{EngineCacheSize: 7, MaxEngineBytes: 1 << 20},
		{MaxCleanSessions: -1, SessionTTL: -1, MaxRegisterBytes: -1, MaxQueryBytes: -1},
	}
	for i, c := range cases {
		once := c.withDefaults()
		twice := once.withDefaults()
		// Logf is a func (not comparable); compare the scalar fields.
		if once.EngineCacheSize != twice.EngineCacheSize ||
			once.MaxEngineBytes != twice.MaxEngineBytes ||
			once.Parallelism != twice.Parallelism ||
			once.MaxCleanSessions != twice.MaxCleanSessions ||
			once.SessionTTL != twice.SessionTTL ||
			once.MaxRegisterBytes != twice.MaxRegisterBytes ||
			once.MaxQueryBytes != twice.MaxQueryBytes ||
			once.WALSegmentBytes != twice.WALSegmentBytes {
			t.Fatalf("case %d: withDefaults not idempotent:\nonce  %+v\ntwice %+v", i, once, twice)
		}
	}
	if c := (Config{EngineCacheSize: -1, MaxEngineBytes: -1}).withDefaults(); c.EngineCacheSize >= 0 || c.MaxEngineBytes >= 0 {
		t.Fatalf("negative sentinels collapsed: %+v", c)
	}
}

// TestQueryMemoRepeatHits checks repeats against an unchanged dataset
// without a result cache: every repeat is answered bit-identically by a
// fresh sweep of the cached engine, which is built once per point and hit
// on every repeat.
func TestQueryMemoRepeatHits(t *testing.T) {
	d := randDataset(t, 40, 3, 2, 2, 0.5, 940)
	s := NewServer(Config{Parallelism: 2})
	defer s.Close()
	ds, err := s.Register("d", d, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	points := randPoints(8, 2, 941)
	first, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		again, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points})
		if err != nil {
			t.Fatal(err)
		}
		for i := range first.Results {
			for y, v := range first.Results[i].Fractions {
				if math.Float64bits(again.Results[i].Fractions[y]) != math.Float64bits(v) {
					t.Fatalf("repeat %d point %d: repeat answer diverged", rep, i)
				}
			}
			if again.Results[i].Prediction != first.Results[i].Prediction ||
				again.Results[i].Certain != first.Results[i].Certain ||
				math.Float64bits(again.Results[i].Entropy) != math.Float64bits(first.Results[i].Entropy) {
				t.Fatalf("repeat %d point %d: %+v, first %+v", rep, i, again.Results[i], first.Results[i])
			}
		}
	}
	st := ds.Stats()[0]
	if st.EngineBuilds != int64(len(points)) {
		t.Fatalf("want exactly one engine build per point, got %+v", st)
	}
	if st.EngineHits != int64(3*len(points)) {
		t.Fatalf("repeats did not hit the cached engines: %+v", st)
	}
}
