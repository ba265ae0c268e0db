package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public function. Start and End are nanoseconds since the tracer's
// epoch; Parent is 0 for a root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer records spans in memory. A nil *Tracer is the untraced mode:
// Begin returns 0 and End ignores it, so an untraced run pays one nil
// check per call site.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span under parent (0 for a root) and returns its id.
func (t *Tracer) Begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Spans returns a copy of every span recorded so far, in id order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the recorded spans as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return fmt.Errorf("trace: encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// SelfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that the union of its
// children's intervals covers. Children may overlap each other (two
// goroutines under one parent) or stick out of the parent; only the
// covered part of the parent's own interval is subtracted. Spans must
// carry ids 1..len(spans) in order, as Tracer.Spans returns them.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]Span, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 && s.Parent <= len(spans) {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, spans []Span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// Layer sums the spans of one name.
type Layer struct {
	Count int
	Self  time.Duration // summed self time
	Total time.Duration // summed duration
	Durs  []float64     // each span's duration in seconds, for percentiles
}

// ByName groups spans by name with their summed self and total times.
func ByName(spans []Span) map[string]*Layer {
	self := SelfTimes(spans)
	out := make(map[string]*Layer)
	for i, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &Layer{}
			out[s.Name] = l
		}
		l.Count++
		l.Self += self[i]
		l.Total += s.Dur()
		l.Durs = append(l.Durs, s.Dur().Seconds())
	}
	return out
}
