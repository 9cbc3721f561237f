package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one traced call: a layer boundary the benchmark's own code calls
// across. Spans of one request share Request; Parent is the enclosing span
// (0 for a root).
type span struct {
	ID      int64         `json:"id"`
	Parent  int64         `json:"parent"`
	Request int64         `json:"request"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"` // since the tracer started
	End     time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; end closes it and records it.
func (tr *tracer) begin(name string, parent, request int64) span {
	tr.mu.Lock()
	tr.next++
	id := tr.next
	tr.mu.Unlock()
	return span{ID: id, Parent: parent, Request: request, Name: name, Start: time.Since(tr.t0)}
}

func (tr *tracer) end(s span) span {
	s.End = time.Since(tr.t0)
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s
}

// within runs f inside a span.
func (tr *tracer) within(name string, parent, request int64, f func()) span {
	s := tr.begin(name, parent, request)
	f()
	return tr.end(s)
}

// snapshot copies the spans recorded so far.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// Headers carrying the client-side span to the traced server handler.
const (
	hdrRequest = "X-Loadbench-Request"
	hdrSpan    = "X-Loadbench-Span"
)

// handler wraps next so every request is a span named name, parented to
// the client span named in the request headers.
func (tr *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrRequest), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		tr.within(name, parent, req, func() { next.ServeHTTP(w, r) })
	})
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	calls  int
	busyMS float64   // summed self time
	selfMS []float64 // self time per call
}

func (l layerStats) p50() float64 {
	if len(l.selfMS) == 0 {
		return 0
	}
	return median(l.selfMS)
}

// byName aggregates self time — a span's duration minus the part of it its
// children cover — per span name.
func (tr *tracer) byName() map[string]*layerStats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerStats)
	for _, s := range tr.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		l := out[s.Name]
		if l == nil {
			l = &layerStats{}
			out[s.Name] = l
		}
		l.calls++
		l.busyMS += ms(self)
		l.selfMS = append(l.selfMS, ms(self))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = start, end
		} else if end > curEnd {
			curEnd = end
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// write saves every span, one JSON object per line.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
