package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
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

// TestResultCacheBatchRoundTrip checks the dataset-level result cache with
// exact counts: a point's first request misses and is declined by the
// doorkeeper, its second misses and is admitted, its third hits; answers
// are field-for-field identical to a cache-disabled server's on every pass;
// and the accumulator mode is part of the key (a UseMC flip never reuses a
// tally answer, and is admitted on its own second request).
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
	n := int64(len(points))
	ctx := context.Background()
	want, err := plain.BatchQuery(ctx, "d", BatchRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	wantMC, err := plain.BatchQuery(ctx, "d", BatchRequest{Points: points, UseMC: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats().ResultCache != nil {
		t.Fatal("stats grew a result_cache block with the cache disabled")
	}

	pass := func(label string, useMC bool, wantStats ResultCacheStats) {
		t.Helper()
		got, err := cached.BatchQuery(ctx, "d", BatchRequest{Points: points, UseMC: useMC})
		if err != nil {
			t.Fatal(err)
		}
		if useMC {
			samePointResults(t, label, got.Results, wantMC.Results)
		} else {
			samePointResults(t, label, got.Results, want.Results)
		}
		st := cached.Stats().ResultCache
		if st == nil {
			t.Fatal("stats missing result_cache block with the cache enabled")
		}
		wantStats.MaxBytes, wantStats.Bytes = st.MaxBytes, st.Bytes
		if *st != wantStats {
			t.Fatalf("%s: %+v, want %+v", label, *st, wantStats)
		}
		if (st.Entries == 0) != (st.Bytes == 0) {
			t.Fatalf("%s: %d entries account %d bytes", label, st.Entries, st.Bytes)
		}
	}
	pass("first request", false, ResultCacheStats{Misses: n, Declined: n})
	pass("second request", false, ResultCacheStats{Entries: int(n), Misses: 2 * n, Declined: n})
	pass("third request", false, ResultCacheStats{Entries: int(n), Hits: n, Misses: 2 * n, Declined: n})
	pass("first mc request", true, ResultCacheStats{Entries: int(n), Hits: n, Misses: 3 * n, Declined: 2 * n})
	pass("second mc request", true, ResultCacheStats{Entries: int(2 * n), Hits: n, Misses: 4 * n, Declined: 2 * n})
	pass("third mc request", true, ResultCacheStats{Entries: int(2 * n), Hits: 2 * n, Misses: 4 * n, Declined: 2 * n})
}

// TestResultCacheSecondRequestAdmission checks over HTTP that second-request
// admission changes no answer byte: the first, second and third request of
// each point answer byte-equal to an uncached server's, the cache holds 0
// entries after the first pass and one per point after the second, and the
// third pass is all hits.
func TestResultCacheSecondRequestAdmission(t *testing.T) {
	d := randDataset(t, 40, 3, 3, 2, 0.6, 408)
	cached := NewServer(Config{ResultCacheBytes: 1 << 20, Parallelism: 2})
	defer cached.Close()
	plain := NewServer(Config{Parallelism: 2})
	defer plain.Close()
	for _, s := range []*Server{cached, plain} {
		if _, err := s.Register("d", d, nil, 3); err != nil {
			t.Fatal(err)
		}
	}
	points := randPoints(16, 2, 409)
	body, err := json.Marshal(map[string]any{"points": points})
	if err != nil {
		t.Fatal(err)
	}
	answer := func(s *Server) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		Handler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/d/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	want := answer(plain)
	n := len(points)
	for pass, wantEntries := range []int{0, n, n} {
		if got := answer(cached); !bytes.Equal(got, want) {
			t.Fatalf("request %d: %s\nuncached server: %s", pass+1, got, want)
		}
		if st := cached.Stats().ResultCache; st.Entries != wantEntries {
			t.Fatalf("after request %d: %d entries, want %d (%+v)", pass+1, st.Entries, wantEntries, *st)
		}
	}
	if st := cached.Stats().ResultCache; st.Hits != int64(n) || st.Misses != int64(2*n) || st.Declined != int64(n) {
		t.Fatalf("three passes of %d points: %+v, want %d hits, %d misses, %d declined", n, *st, n, 2*n, n)
	}
}

// TestResultCacheEviction checks the byte budget with exact counts: 20
// distinct points, each requested twice, are admitted on their second
// request into a budget that holds three entries, so the cache ends with
// the three most recent, 17 evictions, and its accounted bytes within the
// budget.
func TestResultCacheEviction(t *testing.T) {
	d := randDataset(t, 30, 3, 2, 2, 0.5, 406)
	probe := NewServer(Config{})
	defer probe.Close()
	info, err := probe.Register("d", d, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	points := randPoints(20, 2, 407)
	// Every key has the same length (one fingerprint, K, mode and point
	// dimension) and every answer 2 fractions, so every entry accounts the
	// same bytes.
	entry := int64(len(resultKey(info.Fingerprint(), 3, false, pointKey(points[0])))) + 2*8 + resultEntryOverhead
	s := NewServer(Config{ResultCacheBytes: 3*entry + entry/2})
	defer s.Close()
	if _, err := s.Register("d", d, nil, 3); err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		for range 2 {
			if _, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: [][]float64{pt}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats().ResultCache
	want := ResultCacheStats{Entries: 3, Bytes: 3 * entry, MaxBytes: 3*entry + entry/2,
		Misses: 40, Evictions: 17, Declined: 20}
	if *st != want {
		t.Fatalf("%+v, want %+v", *st, want)
	}
	// The most recent point is cached: its third request hits.
	if _, err := s.BatchQuery(context.Background(), "d", BatchRequest{Points: points[len(points)-1:]}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().ResultCache; st.Hits != 1 {
		t.Fatalf("the most recent point's third request: %+v, want 1 hit", *st)
	}
}

// TestResultCacheApproxBytesTracksAllocs checks the figure the result cache
// budgets by: the accounted bytes of 20 000 admitted answers are within
// ±25% of the live heap they hold (the runtime.MemStats.HeapAlloc delta
// across filling the cache, each side after a GC), for the key shapes of a
// 64-character fingerprint with 2- and 7-dimensional points and 2 or 3
// labels.
func TestResultCacheApproxBytesTracksAllocs(t *testing.T) {
	const n = 20000
	fingerprint := strings.Repeat("f", 64)
	for _, shape := range []struct{ dim, labels int }{{2, 2}, {7, 2}, {7, 3}} {
		rc := newResultCache(1 << 40)
		rc.put("warm", PointResult{}) // the doorkeeper is allocated outside the window
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range n {
			pt := make([]float64, shape.dim)
			pt[0] = float64(i)
			key := resultKey(fingerprint, 3, false, pointKey(pt))
			r := PointResult{Fractions: make([]float64, shape.labels)}
			rc.put(key, r)
			rc.put(key, r)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		st := rc.stats()
		if st.Entries != n {
			t.Fatalf("dim %d labels %d: %d entries, want %d", shape.dim, shape.labels, st.Entries, n)
		}
		live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		ratio := float64(st.Bytes) / live
		t.Logf("dim %d labels %d: %.0f accounted vs %.0f live bytes per entry", shape.dim, shape.labels, float64(st.Bytes)/n, live/n)
		if ratio < 0.75 || ratio > 1.25 {
			t.Fatalf("dim %d labels %d: accounted / live bytes = %.2f (%d / %.0f), want 0.75..1.25",
				shape.dim, shape.labels, ratio, st.Bytes, live)
		}
		runtime.KeepAlive(rc)
	}
}
