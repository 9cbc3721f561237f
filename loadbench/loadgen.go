package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxConns is the connection cap of the load generator: one process, at
// most nproc (2 on the reference box) connections to cpserve.
const maxConns = 2

// client sends pre-encoded bodies to one server over at most maxConns
// keep-alive connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the full response body. A non-2xx
// status is an error carrying the body.
func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	return c.doWith(ctx, method, path, body, nil)
}

// doWith is do with extra request headers.
func (c *client) doWith(ctx context.Context, method, path string, body []byte, hdr map[string]string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return out, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// tally counts requests attempted and failed (transport errors, non-2xx
// answers and failed correctness checks alike) and keeps the first failure.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             error
}

func (t *tally) record(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	if t.first == nil {
		t.first = err
	}
	t.mu.Unlock()
}

func (t *tally) firstErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.first
}

// openLoopResult holds one open-loop phase: per-request latency timed from
// when the request was due, and how late the generator dispatched it.
type openLoopResult struct {
	latency []time.Duration
	index   []int // the request each latency belongs to
	late    []time.Duration
}

// openLoop sends up to n requests at a fixed rate regardless of how fast
// they complete (a slow server builds a queue, it does not get less load),
// stopping early once stop (if non-nil) is closed. Each request runs on its
// own goroutine — one per scheduled request — and waits for one of the
// client's maxConns connections. send(i) performs request i and returns
// when its response was complete, before any client-side decoding or
// checking, so latencies are the server's and the transport's only. The
// dispatching goroutine holds its OS thread for sleepUntil.
func openLoop(rate float64, n int, stop <-chan struct{}, send func(i int) time.Time) openLoopResult {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var res openLoopResult
	var mu sync.Mutex // guards res.latency and res.index
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		if isClosed(stop) {
			break
		}
		res.late = append(res.late, time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			lat := send(i).Sub(due)
			mu.Lock()
			res.latency = append(res.latency, lat)
			res.index = append(res.index, i)
			mu.Unlock()
		}(i, due)
	}
	wg.Wait()
	return res
}

// isClosed reports whether c is closed (never, for a nil c).
func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// sleepUntil blocks the calling OS thread until t with nanosleep. Go's own
// timers wake sub-millisecond sleeps a millisecond late when the scheduler
// idles in the network poller, which would swamp batch-hot's
// sub-millisecond latencies; a thread-level nanosleep is typically late by
// tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		// An EINTR wake-up just goes round the loop again.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// closedLoop runs conns senders back to back until dur elapses or next
// runs out of work; each sender issues its next request only after the
// previous one completed. send is as for openLoop. It returns every
// request's latency and the elapsed wall time.
func closedLoop(conns int, dur time.Duration, next func() (int, bool), send func(i int) time.Time) ([]time.Duration, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	lats := make([][]time.Duration, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i, ok := next()
				if !ok {
					return
				}
				t0 := time.Now()
				lats[c] = append(lats[c], send(i).Sub(t0))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, elapsed
}

// counter hands out 0, 1, 2, ... up to limit, safely across goroutines.
func counter(limit int) func() (int, bool) {
	var n atomic.Int64
	return func() (int, bool) {
		i := int(n.Add(1) - 1)
		return i, i < limit
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// in milliseconds; NaN for an empty sample.
func percentile(xs []time.Duration, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return ms(s[rank-1])
}

// windows is how many consecutive windows of its schedule an open-loop
// phase is split into for windowed.
const windows = 3

// windowed is the median over windows consecutive windows of the open-loop
// schedule of each window's p-th latency percentile: a burst of host noise
// confined to one window does not move it.
func windowed(r openLoopResult, p float64) float64 {
	byDue := make([]time.Duration, len(r.latency))
	order := make([]int, len(r.latency))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool { return r.index[order[a]] < r.index[order[b]] })
	for k, o := range order {
		byDue[k] = r.latency[o]
	}
	var parts [][]time.Duration
	for w := range windows {
		parts = append(parts, byDue[w*len(byDue)/windows:(w+1)*len(byDue)/windows])
	}
	return medianOf(parts, p)
}

// medianOf is the median over parts of each part's p-th percentile.
func medianOf(parts [][]time.Duration, p float64) float64 {
	var ps []float64
	for _, part := range parts {
		ps = append(ps, percentile(part, p))
	}
	return median(ps)
}

func flatten(parts [][]time.Duration) []time.Duration {
	var out []time.Duration
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of float64 values (mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
