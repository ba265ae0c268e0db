package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimesSubtractsChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children (two goroutines) and one that outlives
		// its parent: they cover [10,50) and [90,100) of the root.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "lone", Start: 200, End: 260},
	}
	want := []time.Duration{50, 20, 20, 30, 10, 60}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %v, want %v", spans[i].ID, got[i], want[i])
		}
	}
	layers := ByName(append(spans, Span{ID: 7, Name: "a", Start: 300, End: 305}))
	if l := layers["a"]; l.Count != 2 || l.Self != 25 || l.Total != 25 {
		t.Errorf(`layer "a" = %+v, want 2 spans, 25ns self and total`, l)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *Tracer
	if id := tr.Begin(0, "x"); id != 0 {
		t.Fatalf("nil tracer Begin = %d, want 0", id)
	}
	tr.End(0)
	if s := tr.Spans(); s != nil {
		t.Fatalf("nil tracer spans = %v", s)
	}
	tr = NewTracer()
	root := tr.Begin(0, "root")
	child := tr.Begin(root, "child")
	tr.End(child)
	tr.End(root)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != root || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
}

func TestPaperCPUHours(t *testing.T) {
	for _, c := range []struct {
		cpu     float64
		systems int
		want    float64
	}{
		{3600, 1000, 1},
		{4.5, 1, 1.25},     // one system per point: x1000
		{18, 4, 1.25},      // four systems per point: x250
		{0.36, 100, 0.001}, // x10
	} {
		if got := PaperCPUHours(c.cpu, c.systems); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PaperCPUHours(%g, %d) = %g, want %g", c.cpu, c.systems, got, c.want)
		}
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true},
		{100, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := TailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndSummary(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := Percentile(vs, 90); got != 90 {
		t.Errorf("p90 = %v, want 90 (nearest rank)", got)
	}
	if got := Percentile(vs, 0); got != 1 {
		t.Errorf("p0 = %v, want the minimum", got)
	}
	if vs[0] != 100 {
		t.Errorf("Percentile reordered its input")
	}
	s := Summarise(vs)
	if s.N != 100 || s.P50 != 50.5 || s.TailP != 90 || s.Tail != 90 {
		t.Errorf("Summarise = %+v", s)
	}
	small := Summarise([]float64{3, 1, 2})
	if small.N != 3 || small.P50 != 2 || small.TailP != 0 || small.Tail != 3 {
		t.Errorf("Summarise of 3 samples = %+v, want median 2 and the maximum as tail", small)
	}
	if Median(nil) != 0 || !math.IsNaN(Percentile(nil, 50)) {
		t.Errorf("empty inputs")
	}
}

func TestUsageDeltas(t *testing.T) {
	t0 := time.Unix(100, 0)
	a := Usage{Wall: t0, CPU: 2 * time.Second, Alloc: 1_000_000}
	b := Usage{Wall: t0.Add(1500 * time.Millisecond), CPU: 5 * time.Second, Alloc: 251_000_000}
	d := b.Since(a)
	if d.Wall != 1500*time.Millisecond || d.CPU != 3*time.Second || d.Alloc != 250_000_000 || d.AllocMB() != 250 {
		t.Fatalf("delta = %+v (%.1f MB)", d, d.AllocMB())
	}
}

var sink []byte

func TestReadUsageSeesCPUAndAllocations(t *testing.T) {
	u0 := ReadUsage()
	const chunk = 1 << 20
	for i := 0; i < 16; i++ {
		sink = make([]byte, chunk)
	}
	x := 0.0
	for time.Since(u0.Wall) < 50*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	d := ReadUsage().Since(u0)
	if d.Alloc < 16*chunk {
		t.Errorf("alloc delta %d, want >= %d", d.Alloc, 16*chunk)
	}
	if d.CPU < 20*time.Millisecond || d.CPU > d.Wall+50*time.Millisecond*time.Duration(2) {
		t.Errorf("cpu delta %v over wall %v (x=%g)", d.CPU, d.Wall, x)
	}
}

func TestLegStat(t *testing.T) {
	var c busyClock
	c.add("a", 300*time.Millisecond)
	c.add("b", 500*time.Millisecond)
	c.add("a", 100*time.Millisecond)
	s := c.stat(time.Second, 2)
	if s.Busy != 900*time.Millisecond || s.MaxBusy != 500*time.Millisecond {
		t.Fatalf("stat = %+v", s)
	}
	if got := s.BusyRatio(); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("busy ratio = %v, want 0.45", got)
	}
	if got := s.Overhead(); got != 500*time.Millisecond {
		t.Errorf("overhead = %v, want 500ms", got)
	}
}
