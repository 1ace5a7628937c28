package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// noParent marks a root span.
const noParent = -1

// span is one timed interval: a call into a layer, or a phase of the
// benchmark that encloses such calls. Aggregate spans fold the calls of a
// hot per-row interface (a RowSource read, an FD update without a shrink)
// into one record per pass: Calls counts them and Busy sums the time spent
// inside them, so a pass over 10⁵ rows costs one record instead of 10⁵.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

func (s *span) aggregate() bool { return s.Calls > 0 }

// tracer keeps spans in memory for the whole run; write dumps them at the
// end. A nil *tracer records nothing, which is how untraced runs call the
// same code.
type tracer struct {
	epoch time.Time
	run   atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newRun stamps the spans recorded from now on with a fresh run id (one id
// per repetition of the workload's operation).
func (t *tracer) newRun() {
	if t != nil {
		t.run.Add(1)
	}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// record stores a finished span and returns its id.
func (t *tracer) record(name string, parent int32, start, end time.Time, calls, busy int64) int32 {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run.Load(), Name: name,
		Start: t.ns(start), End: t.ns(end), Calls: calls, Busy: busy})
	return id
}

// begin opens a span whose end is set by the returned function. Children
// begun before it ends name its id as their parent.
func (t *tracer) begin(name string, parent int32) (id int32, end func()) {
	if t == nil {
		return noParent, func() {}
	}
	id = t.record(name, parent, time.Now(), time.Now(), 0, 0)
	return id, func() {
		now := t.ns(time.Now())
		t.mu.Lock()
		t.spans[id].End = now
		t.mu.Unlock()
	}
}

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(name string, parent int32, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.record(name, parent, start, time.Now(), 0, 0)
	return err
}

// aggSpan accumulates the calls of one hot interface within one pass. It is
// owned by a single goroutine; close records it.
type aggSpan struct {
	t      *tracer
	name   string
	parent int32
	start  time.Time
	last   time.Time
	calls  int64
	busy   time.Duration
}

func (t *tracer) agg(name string, parent int32) *aggSpan {
	return &aggSpan{t: t, name: name, parent: parent}
}

// add folds one call that started at start and took d into the span.
func (a *aggSpan) add(start time.Time, d time.Duration) {
	if a.calls == 0 {
		a.start = start
	}
	a.calls++
	a.busy += d
	a.last = start.Add(d)
}

// close records the span (if any call was folded in) and resets it, so the
// same value can collect the next pass.
func (a *aggSpan) close() {
	if a == nil || a.t == nil || a.calls == 0 {
		return
	}
	a.t.record(a.name, a.parent, a.start, a.last, a.calls, a.busy.Nanoseconds())
	a.calls, a.busy = 0, 0
}

// layerStats holds what the spans of one name add up to.
type layerStats struct {
	count int64   // spans, or folded calls for aggregate spans
	self  float64 // seconds not covered by child spans
}

// stats folds every span into per-name totals. A span's self time is its
// duration minus the part of it its children cover: the union of its
// ordinary children's intervals (parallel children overlap) plus the busy
// time of its aggregate children, which run on the parent's goroutine
// between its other children.
func (t *tracer) stats() map[string]*layerStats {
	out := make(map[string]*layerStats)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][]int32)
	for _, s := range t.spans {
		if s.Parent != noParent {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		st := out[s.Name]
		if st == nil {
			st = &layerStats{}
			out[s.Name] = st
		}
		if s.aggregate() {
			st.count += s.Calls
			st.self += float64(s.Busy) / 1e9
			continue
		}
		dur := float64(s.End-s.Start) / 1e9
		st.count++
		var covered float64
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			c := &t.spans[k]
			if c.aggregate() {
				covered += float64(c.Busy) / 1e9
			} else {
				iv = append(iv, [2]int64{c.Start, c.End})
			}
		}
		covered += unionSeconds(iv)
		if self := dur - covered; self > 0 {
			st.self += self
		}
	}
	return out
}

// unionSeconds returns the total length of the union of intervals.
func unionSeconds(iv [][2]int64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	total += hi - lo
	return float64(total) / 1e9
}

// layerSelf sums the self time of every span whose name starts with one of
// the given layer prefixes ("fd." matches fd.update and fd.shrink).
func layerSelf(st map[string]*layerStats, prefixes ...string) float64 {
	var sum float64
	for name, s := range st {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				sum += s.self
				break
			}
		}
	}
	return sum
}

func get(st map[string]*layerStats, name string) layerStats {
	if s := st[name]; s != nil {
		return *s
	}
	return layerStats{}
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
