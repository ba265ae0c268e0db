package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cellcache"
	"repro/internal/coord"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/shard"
)

const (
	// fleetSelection is the fleet's experiment selection. It is Fig. 5
	// rather than "all": "all" includes the motivation experiment, which
	// fails outright for about one seed in seven (its remote-write count
	// includes cross-traffic packets that share the I/O source), so an
	// "all" fleet would fail on seeds the benchmark does not choose.
	fleetSelection = experiment.ExpFig5
	// fleetSystems is the systems count per point of the selection.
	fleetSystems = 100
	// fleetUnits is the number of cost-balanced batches each leg plans.
	fleetUnits = 8
	// fleetWorkers is the number of in-process workers per leg.
	fleetWorkers = 2
)

// fleet runs the fleet selection at a minimal GA budget (population 2, one
// generation), so cells are cheap and the scale-out layers carry the
// time. Each pass runs three legs with cost balance, each ending in
// merge -> aggregate -> render and each held to the in-process reference
// built in set-up: a dispatch.Run leg with two in-process workers, work
// stealing, the binary codec and a cold cell cache (cache writes); an
// in-process coord.Coordinator leg driven by two worker goroutines; and
// a dispatch.Run leg over the now warm cache (cache reads).
type fleet struct {
	params    experiment.ShardParams
	ref       []byte      // binary encoding of the in-process reference
	refFile   *shard.File // decoded reference
	refRender string
	digest    string // payload digest of the reference
	cells     int
	legs      []legResult // the current pass's legs, for the check
}

func (w *fleet) Setup(b *Bench) error {
	w.params = experiment.ShardParams{Seed: b.Seed, Systems: fleetSystems, GAPopulation: 2, GAGenerations: 1}.Normalised()
	f, err := experiment.RunShard(fleetSelection, w.params, 2, 1, 0)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if w.ref, err = f.EncodeAs(shard.EncodingBinary); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if w.refFile, err = shard.Decode(w.ref); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if w.refRender, err = b.render(0, w.refFile); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	w.cells = w.refFile.CellCount()
	w.digest = digestOf(w.refFile)
	return nil
}

func (w *fleet) SystemsPerPoint() int { return fleetSystems }

// legResult is what one leg of a pass produced, kept for the check.
type legResult struct {
	name   string
	merged *shard.File
	raw    []byte // the merged bytes as served (coordinator), nil if not served as bytes
	render string
	err    error
	res    *dispatch.Result
	cache  cellcache.Stats // warm leg only
	warm   *cellcache.Store
}

func (w *fleet) Pass(b *Bench, i, root int) Outcome {
	cacheDir := filepath.Join(b.PassDir, "cache")
	w.legs = w.legs[:0]
	// leg runs one leg, renders its merged result and, when traced,
	// appends its LegStat to stats (a field of b.C).
	leg := func(name string, stats *[]LegStat, run func() (legResult, LegStat)) {
		l, stat := run()
		l.name = name
		if l.err == nil {
			l.render, l.err = b.render(root, l.merged)
		}
		if l.err == nil && b.Traced() {
			b.Count(func(*Counters) { *stats = append(*stats, stat) })
		}
		w.legs = append(w.legs, l)
	}
	leg("dispatch cold", &b.C.Dispatch, func() (legResult, LegStat) {
		return w.dispatchLeg(b, root, spanDispatch, filepath.Join(b.PassDir, "cold"), cacheDir)
	})
	leg("coordinator", &b.C.Coord, func() (legResult, LegStat) {
		return w.coordLeg(b, root, filepath.Join(b.PassDir, "coord"))
	})
	leg("dispatch warm", &b.C.WarmDispatch, func() (legResult, LegStat) {
		return w.dispatchLeg(b, root, spanWarmLeg, filepath.Join(b.PassDir, "warm"), cacheDir)
	})
	return Outcome{Attempted: len(w.legs) * w.cells}
}

// Check holds every leg of the pass to the reference and, when traced,
// re-merges the cold leg's batch files, censuses the warm cache and
// re-executes the reference's cells (pass 0 only; every pass computes
// the same cells).
func (w *fleet) Check(b *Bench, i, root int) Outcome {
	o := Outcome{Digest: w.digest}
	for _, l := range w.legs {
		if l.err != nil {
			o.fail(w.cells, "pass %d: %s leg: %v", i, l.name, l.err)
			continue
		}
		o.add(w.verify(l))
		if l.warm != nil {
			if st := l.cache; st.Misses > 0 || st.Hits == 0 {
				o.fail(w.cells, "pass %d: warm leg cache hit ratio %.4f (%d hits, %d misses), want 1",
					i, st.HitRate(), st.Hits, st.Misses)
			}
			if l.res.Cached != l.res.Shards {
				o.fail(w.cells, "pass %d: warm leg served %d of %d units from the cache", i, l.res.Cached, l.res.Shards)
			}
		}
		if !b.Traced() {
			continue
		}
		switch {
		case l.warm != nil:
			st := l.cache
			b.Count(func(c *Counters) { c.CacheHits += st.Hits; c.CacheMisses += st.Misses })
			if i == 0 {
				o.add(w.cacheCensus(b, root, l.warm, filepath.Join(b.PassDir, "census")))
			}
		case l.res != nil: // the cold dispatch leg
			o.add(w.remerge(b, root, l.res))
		}
	}
	if b.Traced() && i == 0 {
		o.add(newChecker(b, w.params).checkFile(root, w.refFile))
	}
	return o
}

func openCache(dir string) (*cellcache.Store, error) {
	s, err := cellcache.Open(dir)
	if err != nil {
		return nil, err
	}
	return s, s.SetEncoding(cellcache.EncodingBinary)
}

// verify holds one leg's merged file to the reference: every cell's
// payload, the merged bytes (as served, or re-encoded) and the rendered
// output. Mismatching or missing cells count as failed.
func (w *fleet) verify(l legResult) Outcome {
	var o Outcome
	if bad := diffCells(w.refFile, l.merged); bad > 0 {
		o.fail(bad, "%s: %d cells differ from the reference", l.name, bad)
		return o
	}
	data, err := l.raw, error(nil)
	if data == nil {
		data, err = l.merged.EncodeAs(shard.EncodingBinary)
	}
	if err != nil || !bytes.Equal(data, w.ref) {
		o.fail(w.cells, "%s: merged bytes differ from the reference (%v)", l.name, err)
		return o
	}
	if l.render != w.refRender {
		o.fail(w.cells, "%s: rendered output differs from the reference", l.name)
	}
	return o
}

// diffCells counts the reference cells that f lacks or holds with other
// payloads or seeds.
func diffCells(ref, f *shard.File) int {
	got := make(map[string]shard.Cell)
	for _, r := range f.Runs {
		for _, c := range r.Cells {
			got[fmt.Sprintf("%s/%d/%d", r.Experiment, c.Point, c.System)] = c
		}
	}
	bad := 0
	for _, r := range ref.Runs {
		for _, c := range r.Cells {
			g, ok := got[fmt.Sprintf("%s/%d/%d", r.Experiment, c.Point, c.System)]
			if !ok || g.Seed != c.Seed || !bytes.Equal(g.Data, c.Data) {
				bad++
			}
		}
	}
	return bad
}

// inprocWorker is a dispatch.Worker that computes a batch in this
// process, as the coordinator test rig's in-process worker does, and
// writes it in the binary codec.
type inprocWorker struct {
	name   string
	b      *Bench
	parent int
	busy   *busyClock
}

func (w *inprocWorker) Name() string { return w.name }

func (w *inprocWorker) Run(ctx context.Context, t dispatch.Task) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	defer func() { w.busy.add(w.name, time.Since(start)) }()
	id := w.b.Tr.Begin(w.parent, spanWorker)
	defer w.b.Tr.End(id)
	data, err := computeUnit(w.b, id, t.Spec.Selection, t.Spec.Params, t.Cells)
	if err != nil {
		return err
	}
	return os.WriteFile(t.Out, data, 0o644)
}

// computeUnit evaluates one cost-balanced batch given by its cell spec
// and returns it in the binary codec.
func computeUnit(b *Bench, parent int, selection string, p experiment.ShardParams, spec string) ([]byte, error) {
	cells, err := alignCells(selection, spec)
	if err != nil {
		return nil, err
	}
	var f *shard.File
	b.Span(parent, spanRunBatch, func(int) { f, err = experiment.RunBatchCached(selection, p, 1, cells, nil) })
	if err != nil {
		return nil, err
	}
	return b.encodeFile(parent, f)
}

// alignCells maps a cell spec's per-run sets onto the selection's run
// order.
func alignCells(selection, spec string) ([][]int, error) {
	runNames, err := experiment.SelectionRuns(selection)
	if err != nil {
		return nil, err
	}
	names, sets, err := shard.ParseCellSpec(spec)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]int, len(runNames))
	for i, n := range runNames {
		byName[n] = i
	}
	cells := make([][]int, len(runNames))
	for i, n := range names {
		ri, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("cell spec names unknown run %q", n)
		}
		cells[ri] = sets[i]
	}
	return cells, nil
}

// dispatchLeg runs one dispatch.Run leg over the cache in cacheDir.
func (w *fleet) dispatchLeg(b *Bench, parent int, name, dir, cacheDir string) (legResult, LegStat) {
	cache, err := openCache(cacheDir)
	if err != nil {
		return legResult{err: err}, LegStat{}
	}
	busy := &busyClock{}
	id := b.Tr.Begin(parent, name)
	workers := make([]dispatch.Worker, fleetWorkers)
	for k := range workers {
		workers[k] = &inprocWorker{name: fmt.Sprintf("inproc-%d", k), b: b, parent: id, busy: busy}
	}
	start := time.Now()
	res, err := dispatch.Run(context.Background(),
		dispatch.Spec{Selection: fleetSelection, Params: w.params, Shards: fleetUnits},
		workers,
		dispatch.Options{Balance: dispatch.BalanceCost, Steal: true, Dir: dir, Cache: cache, Codec: shard.EncodingBinary})
	leg := time.Since(start)
	b.Tr.End(id)
	if err != nil {
		return legResult{err: err}, LegStat{}
	}
	stat := busy.stat(leg, fleetWorkers)
	stat.Units, stat.Attempts = res.Shards, len(res.Attempts)
	l := legResult{merged: res.Merged, res: res}
	if name == spanWarmLeg {
		l.warm, l.cache = cache, cache.Stats()
	}
	return l, stat
}

// remerge re-reads the leg's winning batch files, merges them itself and
// requires the result to equal the reference.
func (w *fleet) remerge(b *Bench, parent int, res *dispatch.Result) Outcome {
	o := Outcome{}
	files := make([]*shard.File, 0, len(res.ShardPaths))
	for _, p := range res.ShardPaths {
		data, err := os.ReadFile(p)
		if err != nil {
			o.fail(0, "re-merge: %v", err)
			return o
		}
		f, err := b.decodeFile(parent, data)
		if err != nil {
			o.fail(0, "re-merge: %s: %v", p, err)
			return o
		}
		files = append(files, f)
	}
	var merged *shard.File
	var err error
	b.Span(parent, spanMerge, func(int) { merged, _, err = shard.MergeBatches(files) })
	if err != nil {
		o.fail(w.cells, "re-merge: %v", err)
		return o
	}
	if bad := diffCells(w.refFile, merged); bad > 0 {
		o.fail(bad, "re-merge: %d cells differ from the reference", bad)
	}
	return o
}

// coordLeg runs the selection through an in-process coordinator: submit,
// two worker goroutines that register, lease, compute and push until the
// run merges, then fetch and decode the merged result.
func (w *fleet) coordLeg(b *Bench, parent int, dir string) (legResult, LegStat) {
	data, stat, err := w.coordRun(b, parent, dir)
	if err != nil {
		return legResult{err: err}, LegStat{}
	}
	f, err := b.decodeFile(parent, data)
	return legResult{merged: f, raw: data, err: err}, stat
}

func (w *fleet) coordRun(b *Bench, parent int, dir string) ([]byte, LegStat, error) {

	c, err := coord.New(dir, coord.Options{HeartbeatTimeout: time.Minute, Codec: shard.EncodingBinary})
	if err != nil {
		return nil, LegStat{}, err
	}
	defer c.Close()
	id := b.Tr.Begin(parent, spanCoordLeg)
	defer b.Tr.End(id)
	start := time.Now()
	var runID string
	b.Span(id, spanSubmit, func(int) {
		runID, err = c.Submit(coord.SubmitRequest{Selection: fleetSelection, Params: w.params,
			Shards: fleetUnits, Balance: dispatch.BalanceCost})
	})
	if err != nil {
		return nil, LegStat{}, err
	}
	busy := &busyClock{}
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for k := 0; k < fleetWorkers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = coordWorker(b, id, c, runID, fmt.Sprintf("coord-%d", k), busy)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, LegStat{}, err
	}
	var data []byte
	b.Span(id, spanResult, func(int) { data, err = c.Result(runID) })
	leg := time.Since(start)
	if err != nil {
		return nil, LegStat{}, err
	}
	st, err := c.Status(runID)
	if err != nil {
		return nil, LegStat{}, err
	}
	stat := busy.stat(leg, fleetWorkers)
	stat.Units = st.Total
	return data, stat, nil
}

// coordWorker is one worker goroutine of the coordinator leg; it returns
// once the run is no longer running.
func coordWorker(b *Bench, parent int, c *coord.Coordinator, runID, name string, busy *busyClock) error {
	reg := c.Register(name)
	for {
		var l *coord.Lease
		var err error
		b.Span(parent, spanLease, func(int) { l, err = c.Lease(reg.WorkerID, 20*time.Millisecond) })
		if err != nil {
			return err
		}
		if l == nil {
			st, err := c.Status(runID)
			if err != nil {
				return err
			}
			if st.State != "running" {
				return nil
			}
			continue
		}
		start := time.Now()
		id := b.Tr.Begin(parent, spanCoordWork)
		data, err := computeUnit(b, id, l.Selection, l.Params, l.Cells)
		b.Tr.End(id)
		busy.add(name, time.Since(start))
		if err != nil {
			return err
		}
		var resp coord.PushResponse
		b.Span(parent, spanPush, func(int) { resp, err = c.Push(l.RunID, l.Unit, reg.WorkerID, l.Attempt, data) })
		if err != nil {
			return err
		}
		if !resp.Accepted && !resp.Duplicate {
			return fmt.Errorf("coordinator rejected unit %d: %s", l.Unit, resp.Reason)
		}
	}
}

// cacheCensus checks the warm cache from outside: every reference cell
// must be a hit holding the reference payload (timed Gets), and every
// reference cell is written to a fresh store (timed Puts).
func (w *fleet) cacheCensus(b *Bench, parent int, warm *cellcache.Store, dir string) Outcome {
	o := Outcome{}
	fresh, err := openCache(dir)
	if err != nil {
		o.fail(0, "cache census: %v", err)
		return o
	}
	params, err := json.Marshal(w.params)
	if err != nil {
		o.fail(0, "cache census: %v", err)
		return o
	}
	seen := map[string]bool{}
	for _, r := range w.refFile.Runs {
		e, _ := experiment.Lookup(r.Experiment)
		if seen[e.CellKey()] {
			continue
		}
		seen[e.CellKey()] = true
		key := cellcache.RunKey(e.CellKey(), params, e.Codec().Version)
		for _, c := range r.Cells {
			var data json.RawMessage
			var hit bool
			b.Span(parent, spanCacheGet, func(int) { data, hit = warm.Get(key, c.Point, c.System, c.Seed) })
			if !hit || !bytes.Equal(data, c.Data) {
				o.fail(1, "cache census: %s cell (%d,%d) hit=%v", r.Experiment, c.Point, c.System, hit)
			}
			b.Span(parent, spanCachePut, func(int) { err = fresh.Put(key, c.Point, c.System, c.Seed, c.Data) })
			if err != nil {
				o.fail(1, "cache census: put %s cell (%d,%d): %v", r.Experiment, c.Point, c.System, err)
			}
		}
	}
	return o
}
