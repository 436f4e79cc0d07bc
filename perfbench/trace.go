package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call: a named interval, the span that caused it, and
// the request (trial, job or study) it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Spans are recorded at
// study, shard, job and round granularity; per-call timers below that
// (hundreds of thousands of sim.Run calls a second) go to timers instead.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID; end closes it. A nil tracer
// records nothing and returns 0.
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return t.next
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	// IDs are dense and spans append in ID order.
	t.spans[id-1].End = now
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes summarizes the spans per name: count, total time, and self time
// — each span's duration minus the part of it that its children cover.
func (t *tracer) selfTimes() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.total += d
		a.self += d - covered(children[s.ID], s.Start, s.End)
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{"span self times (name: count, total ms, self ms)"}
	for _, n := range names {
		a := by[n]
		out = append(out, fmt.Sprintf("  %s: %d, %.3f, %.3f", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	curS, curE := int64(-1), int64(-1)
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		sum += curE - curS
	}
	return sum
}

// timer aggregates per-call durations (or any samples) into a count and a
// sum: enough for the per-call means the catalog reports, without keeping
// every sample. One goroutine owns a timer; merge combines them.
type timer struct {
	n   int64
	sum float64
}

func (h *timer) add(v float64) {
	h.n++
	h.sum += v
}

// addSince records the nanoseconds elapsed since t0 and returns now.
func (h *timer) addSince(t0 time.Time) time.Time {
	now := time.Now()
	h.add(float64(now.Sub(t0).Nanoseconds()))
	return now
}

func (h *timer) merge(o *timer) {
	h.n += o.n
	h.sum += o.sum
}

func (h *timer) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// percentile returns the exact q-quantile of the samples (nearest rank).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
