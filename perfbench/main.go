// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload in this process for a fixed
// time, checks every output, and prints the metrics as the last line of
// standard output as one JSON object. See README.md.
//
//	perfbench --workload paper-sample --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Outcome is what one pass or check did: cells attempted and failed,
// the SHA-256 of the cell payloads it produced, and any failure notes.
type Outcome struct {
	Attempted, Failed int
	Digest            string
	Notes             []string
}

// fail counts n failed cells with a note.
func (o *Outcome) fail(n int, format string, args ...any) {
	o.Failed += n
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

func (o *Outcome) add(p Outcome) {
	o.Attempted += p.Attempted
	o.Failed += p.Failed
	o.Notes = append(o.Notes, p.Notes...)
}

// Workload is one named benchmark workload. Setup builds the inputs and
// any reference result; the runner calls it several times and keeps the
// last. Pass runs the workload once under the root span and is timed.
// Check, untimed, verifies the pass's outputs and returns their digest;
// in traced mode it also re-executes the pass's layers with spans.
type Workload interface {
	Setup(b *Bench) error
	Pass(b *Bench, i, root int) Outcome
	Check(b *Bench, i, root int) Outcome
	// SystemsPerPoint is how many systems per utilisation point one pass
	// evaluates, the base of the paper-scale projection.
	SystemsPerPoint() int
}

var workloads = map[string]func() Workload{
	"paper-sample": func() Workload { return &paperSample{} },
	"heuristics":   func() Workload { return &heuristics{} },
	"fleet":        func() Workload { return &fleet{} },
}

// Bench is the state one run shares with its workload.
type Bench struct {
	Seed int64
	// PassDir is an empty directory for the current pass. The previous
	// pass's files are deleted before it, outside the measurement.
	PassDir string
	Tr      *Tracer // nil when tracing is off

	mu sync.Mutex
	C  Counters
}

// Count updates the layer counters under the bench's lock.
func (b *Bench) Count(f func(c *Counters)) {
	b.mu.Lock()
	f(&b.C)
	b.mu.Unlock()
}

// Span runs f inside a span named name under parent.
func (b *Bench) Span(parent int, name string, f func(id int)) {
	id := b.Tr.Begin(parent, name)
	f(id)
	b.Tr.End(id)
}

// Traced reports whether spans are being recorded.
func (b *Bench) Traced() bool { return b.Tr != nil }

// Counters are the layer counts the spans alone cannot give.
type Counters struct {
	GASolves, GAEvals, GAFront                  int
	StaticSchedules, StaticFeasible, StaticJobs int
	ScoredJobs, BaselineSystems                 int
	EncodedCells, EncodedBytes, DecodedCells    int
	CacheHits, CacheMisses                      uint64
	// One entry per leg run in traced passes.
	Dispatch, WarmDispatch, Coord []LegStat
	// CellCPU is the process CPU time of the program's own cell
	// computation calls, the base the traced re-execution is compared to.
	CellCPU time.Duration
}

// LegStat describes one scale-out leg: its wall time, the units merged,
// the attempts made and the workers' busy time.
type LegStat struct {
	Leg             time.Duration
	Units, Attempts int
	Workers         int
	Busy, MaxBusy   time.Duration
}

// BusyRatio is the workers' summed busy time over workers × leg.
func (l LegStat) BusyRatio() float64 {
	if l.Leg <= 0 || l.Workers == 0 {
		return 0
	}
	return l.Busy.Seconds() / (float64(l.Workers) * l.Leg.Seconds())
}

// Overhead is the leg time no worker's busy time explains: leg minus the
// busiest worker's busy time.
func (l LegStat) Overhead() time.Duration { return l.Leg - l.MaxBusy }

// busyClock sums per-worker busy time for one leg.
type busyClock struct {
	mu   sync.Mutex
	busy map[string]time.Duration
}

func (c *busyClock) add(worker string, d time.Duration) {
	c.mu.Lock()
	if c.busy == nil {
		c.busy = make(map[string]time.Duration)
	}
	c.busy[worker] += d
	c.mu.Unlock()
}

// stat fills a LegStat's busy fields for workers workers.
func (c *busyClock) stat(leg time.Duration, workers int) LegStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := LegStat{Leg: leg, Workers: workers}
	for _, d := range c.busy {
		s.Busy += d
		s.MaxBusy = max(s.MaxBusy, d)
	}
	return s
}

// Set-up is repeated at least setupMinRepeats times and until
// setupMinTime has been spent on it (at most setupMaxRepeats times), and
// setup_s reports the median, so a cheap set-up is timed as steadily as
// an expensive one.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 50
	setupMinTime    = 500 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-sample, heuristics or fleet")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper-sample|heuristics|fleet, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(*name, mk(), *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// settle starts every pass from the same state: a finished garbage
// collection and no dirty file pages or pending deletions left by
// earlier passes, whose write-back would otherwise be charged to
// whichever pass it overlaps.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// workDir holds each run's scratch directory and the span dumps,
// relative to the checkout root the benchmark runs from.
const workDir = ".bench_build/perfbench"

// run sets the workload up several times, then runs passes until
// the measuring time is spent, and returns the result object.
func run(name string, w Workload, seed int64, measure time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	var dir string
	defer func() {
		if dir != "" {
			os.RemoveAll(dir)
			// Flush the deletions now, so their write-back does not land
			// in the next run's measurement.
			syscall.Sync()
		}
	}()
	b := &Bench{Seed: seed}
	if traced {
		b.Tr = NewTracer()
	}
	fmt.Printf("perfbench %s seed=%d seconds=%.0f trace=%v\n", name, seed, measure.Seconds(), traced)

	// Each set-up creates the run's scratch directory and the workload's
	// inputs; only the last one is kept.
	var setups []float64
	var setupTime float64
	for k := 0; k < setupMinRepeats || (k < setupMaxRepeats && setupTime < setupMinTime.Seconds()); k++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		u0 := ReadUsage()
		var err error
		if dir, err = os.MkdirTemp(workDir, "run-"); err != nil {
			return nil, err
		}
		sp := b.Tr.Begin(0, "setup")
		err = w.Setup(b)
		b.Tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, ReadUsage().Since(u0).Wall.Seconds())
		setupTime += setups[k]
	}

	var total Outcome
	var walls, cpus, allocs, checkCPU []float64
	var passCPU time.Duration
	systems := 0
	digest := ""
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < measure; i++ {
		b.PassDir = filepath.Join(dir, "pass")
		if err := os.RemoveAll(b.PassDir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(b.PassDir, 0o755); err != nil {
			return nil, err
		}
		settle()
		root := b.Tr.Begin(0, "pass")
		u0 := ReadUsage()
		o := w.Pass(b, i, root)
		d := ReadUsage().Since(u0)
		b.Tr.End(root)
		walls = append(walls, d.Wall.Seconds())
		cpus = append(cpus, d.CPU.Seconds())
		allocs = append(allocs, d.AllocMB())
		passCPU += d.CPU
		systems += w.SystemsPerPoint()
		total.add(o)

		root = b.Tr.Begin(0, "check")
		u0 = ReadUsage()
		c := w.Check(b, i, root)
		if c.Attempted > 0 {
			checkCPU = append(checkCPU, ReadUsage().Since(u0).CPU.Seconds())
		}
		b.Tr.End(root)
		if i == 0 {
			digest = c.Digest
		}
		// A check re-executes cells the pass already attempted: it adds
		// failures, not attempts.
		total.Failed += c.Failed
		total.Notes = append(total.Notes, c.Notes...)
	}

	wall, cpu := Summarise(walls), Summarise(cpus)
	fmt.Printf("payload sha256 (pass 0, seed %d): %s\n", seed, digest)
	fmt.Printf("setup_s   p50 %.4f  (n=%d)\n", Median(setups), len(setups))
	fmt.Printf("wall_s    p50 %.4f  %s  (n=%d passes)\n", wall.P50, tailText(wall, "%.4f"), wall.N)
	fmt.Printf("cpu_s     p50 %.4f  %s\n", cpu.P50, tailText(cpu, "%.4f"))
	fmt.Printf("per-pass wall_s/cpu_s:")
	for k := range walls {
		fmt.Printf(" %.3f/%.3f", walls[k], cpus[k])
	}
	fmt.Println()
	fmt.Printf("alloc_mb  p50 %.2f\n", Median(allocs))
	fmt.Printf("paper_cpu_h %.4f  (%.2f CPU-s over %d systems per point)\n",
		PaperCPUHours(passCPU.Seconds(), systems), passCPU.Seconds(), systems)
	fmt.Printf("cells: %d attempted, %d failed\n", total.Attempted, total.Failed)
	for k, n := range total.Notes {
		if k == 20 {
			fmt.Printf("  ... %d more failure notes\n", len(total.Notes)-k)
			break
		}
		fmt.Printf("  FAIL %s\n", n)
	}

	res := &result{
		Correct:   total.Failed == 0 && total.Attempted > 0,
		Attempted: total.Attempted,
		Failed:    total.Failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		res.Metrics["setup_s"] = metric{Median(setups), "s"}
		res.Metrics["wall_s"] = metric{wall.P50, "s"}
		res.Metrics["cpu_s"] = metric{cpu.P50, "s"}
		res.Metrics["alloc_mb"] = metric{Median(allocs), "MB"}
		res.Metrics["paper_cpu_h"] = metric{PaperCPUHours(passCPU.Seconds(), systems), "h"}
		return res, nil
	}

	spans := b.Tr.Spans()
	spanPath := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := b.Tr.WriteFile(spanPath); err != nil {
		return nil, err
	}
	layers := ByName(spans)
	rows := layerMetrics(layers, &b.C)
	printLayers(rows)
	printAccounting(layers, &b.C, wall.P50, cpu.P50, Median(checkCPU))
	fmt.Printf("spans: %d written to %s\n", len(spans), spanPath)
	for _, r := range rows {
		res.Metrics[r.Name] = metric{r.Value, r.Unit}
	}
	return res, nil
}

func tailText(s Summary, format string) string {
	if s.TailP == 0 {
		return fmt.Sprintf("max "+format, s.Tail)
	}
	return fmt.Sprintf("p%g "+format, s.TailP, s.Tail)
}

// printLayers prints the per-layer table.
func printLayers(rows []layerRow) {
	fmt.Printf("\n%-32s %14s %-6s  %s\n", "per-layer metric", "value", "unit", "base")
	for _, r := range rows {
		fmt.Printf("%-32s %14.6g %-6s  %s\n", r.Name, r.Value, r.Unit, r.Base)
	}
}

// printAccounting states how much of the untraced-equivalent pass cost
// the traced layer re-execution accounts for, and the split by span name.
func printAccounting(layers map[string]*Layer, c *Counters, passWall, passCPU, checkCPU float64) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].Self > layers[names[j]].Self })
	fmt.Printf("\n%-28s %8s %12s %12s\n", "span", "count", "self s", "total s")
	for _, n := range names {
		l := layers[n]
		fmt.Printf("%-28s %8d %12.4f %12.4f\n", n, l.Count, l.Self.Seconds(), l.Total.Seconds())
	}
	cells := layers["cell"]
	var traced float64
	if cells != nil {
		traced = cells.Total.Seconds()
	}
	fmt.Printf("\ntraced cell total (sum of re-executed cell spans): %.4f s\n", traced)
	fmt.Printf("untraced-equivalent pass cpu_s p50 %.4f s; check pass cpu p50 %.4f s\n", passCPU, checkCPU)
	if c.CellCPU > 0 && cells != nil {
		fmt.Printf("program cell CPU (process CPU during the program's own cell calls): %.4f s\n", c.CellCPU.Seconds())
		d := c.CellCPU.Seconds() - traced
		fmt.Printf("program cell CPU - traced cell total: %+.4f s (%+.1f%% of program cell CPU); "+
			"positive is work the spans do not see (marshalling, GC), negative is tracing and check overhead\n",
			d, 100*d/c.CellCPU.Seconds())
	}
	if len(c.Dispatch)+len(c.WarmDispatch)+len(c.Coord) > 0 {
		// Scale-out time is leg time no worker's compute explains: leg minus
		// the busiest worker's busy time (all of the warm leg).
		med := func(ls []LegStat) float64 {
			vs := make([]float64, len(ls))
			for i, l := range ls {
				vs[i] = l.Overhead().Seconds()
			}
			return Median(vs)
		}
		cold, warm, co := med(c.Dispatch), med(c.WarmDispatch), med(c.Coord)
		sum := cold + warm + co
		fmt.Printf("scale-out share of the pass: (cold %.4f + warm %.4f + coordinator %.4f) s / pass wall_s p50 %.4f s = %.1f%%\n",
			cold, warm, co, passWall, 100*sum/passWall)
	}
	fmt.Println(strings.Repeat("-", 60))
}
