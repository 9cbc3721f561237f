package serve

import (
	"context"
	"testing"
)

// samePointResults fails unless the two result slices agree field for field
// (fraction equality is exact: both sides run the same deterministic sweep).
func samePointResults(t *testing.T, label string, got, want []PointResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Prediction != w.Prediction || g.Certain != w.Certain || g.Entropy != w.Entropy {
			t.Fatalf("%s: point %d = %+v want %+v", label, i, g, w)
		}
		for y := range w.Fractions {
			if g.Fractions[y] != w.Fractions[y] {
				t.Fatalf("%s: point %d label %d fraction %v want %v", label, i, y, g.Fractions[y], w.Fractions[y])
			}
		}
	}
}

// TestResultCacheBatchRoundTrip checks the dataset-level result cache: a
// repeated batch is answered entirely from cache (hit per point), answers are
// field-for-field identical to a cache-disabled server, and the accumulator
// mode is part of the key (a UseMC flip never reuses a tally answer).
func TestResultCacheBatchRoundTrip(t *testing.T) {
	d := randDataset(t, 36, 3, 2, 2, 0.5, 402)
	cached := NewServer(Config{ResultCacheBytes: 1 << 20})
	defer cached.Close()
	plain := NewServer(Config{})
	defer plain.Close()
	for _, s := range []*Server{cached, plain} {
		if _, err := s.Register("d", d, nil, 3); err != nil {
			t.Fatal(err)
		}
	}
	points := randPoints(12, 2, 403)
	req := BatchRequest{Points: points}

	first, err := cached.BatchQuery(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	st := cached.Stats()
	if st.ResultCache == nil {
		t.Fatal("stats missing result_cache block with the cache enabled")
	}
	if st.ResultCache.Misses != int64(len(points)) || st.ResultCache.Hits != 0 {
		t.Fatalf("cold batch: %+v, want %d misses 0 hits", st.ResultCache, len(points))
	}
	if st.ResultCache.Entries != len(points) || st.ResultCache.Bytes <= 0 {
		t.Fatalf("cold batch cached %d entries (%d bytes), want %d", st.ResultCache.Entries, st.ResultCache.Bytes, len(points))
	}

	second, err := cached.BatchQuery(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	st = cached.Stats()
	if st.ResultCache.Hits != int64(len(points)) {
		t.Fatalf("warm batch: %+v, want %d hits", st.ResultCache, len(points))
	}
	want, err := plain.BatchQuery(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	samePointResults(t, "cold vs uncached", first.Results, want.Results)
	samePointResults(t, "warm vs uncached", second.Results, want.Results)

	// A mode flip must key separately: all misses again, and the MC answers
	// still match the uncached server's.
	mc, err := cached.BatchQuery(context.Background(), "d", BatchRequest{Points: points, UseMC: true})
	if err != nil {
		t.Fatal(err)
	}
	st = cached.Stats()
	if st.ResultCache.Misses != int64(2*len(points)) {
		t.Fatalf("mode flip: %+v, want %d misses", st.ResultCache, 2*len(points))
	}
	wantMC, err := plain.BatchQuery(context.Background(), "d", BatchRequest{Points: points, UseMC: true})
	if err != nil {
		t.Fatal(err)
	}
	samePointResults(t, "mc vs uncached", mc.Results, wantMC.Results)

	if plain.Stats().ResultCache != nil {
		t.Fatal("stats grew a result_cache block with the cache disabled")
	}
}

// TestResultCacheEviction checks the byte budget: a budget far below the
// sweep's footprint evicts (keeping at least the most recent entry) and the
// accounted bytes stay at or under the budget whenever more than one entry is
// cached.
func TestResultCacheEviction(t *testing.T) {
	d := randDataset(t, 30, 3, 2, 2, 0.5, 406)
	s := NewServer(Config{ResultCacheBytes: 400})
	defer s.Close()
	if _, err := s.Register("d", d, nil, 3); err != nil {
		t.Fatal(err)
	}
	points := randPoints(20, 2, 407)
	if _, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats().ResultCache
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", st.MaxBytes, st)
	}
	if st.Entries == 0 {
		t.Fatal("byte budget must keep at least the most recent entry")
	}
	if st.Entries > 1 && st.Bytes > st.MaxBytes {
		t.Fatalf("cache holds %d bytes above the %d budget with %d entries", st.Bytes, st.MaxBytes, st.Entries)
	}
}
