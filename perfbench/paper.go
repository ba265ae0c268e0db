package main

import (
	"strings"

	"repro/internal/experiment"
	"repro/internal/shard"
)

// paperSystemsPerPass is how many systems per utilisation point one
// paper-sample pass evaluates.
const paperSystemsPerPass = 2

// paperSample runs a stratified sample of the paper-scale grids: pass i
// evaluates systems 2i and 2i+1 at each of Fig. 5's 15 utilisation points
// and at each of Fig. 6/7's 5 points, with the paper's GA budget (300 x 500),
// through experiment.RunBatchCached without a cache and with
// parallelism 2. Every pass adds one system per point to the run's
// partial cover, which is aggregated and rendered after each pass.
type paperSample struct {
	params experiment.ShardParams
	rc     experiment.RunContext
	runs   []sampleRun
	// cells accumulates every decoded cell per experiment across passes.
	cells map[string][]shard.Cell
	// last holds the pass's decoded files and want their expected cell
	// counts, for the check.
	last []*shard.File
	want []int
}

type sampleRun struct {
	selection string
	grid      shard.Grid
	// aggregates are the experiments rendered from the run's cells (Fig.
	// 6 and 7 share one cell grid).
	aggregates []string
}

func (w *paperSample) Setup(b *Bench) error {
	w.params = experiment.ShardParams{PaperScale: true, Seed: b.Seed}.Normalised()
	w.rc = w.params.Context(2)
	w.runs = nil
	for _, r := range []sampleRun{
		{selection: experiment.ExpFig5, aggregates: []string{experiment.ExpFig5}},
		{selection: experiment.ExpFig6, aggregates: []string{experiment.ExpFig6, experiment.ExpFig7}},
	} {
		plan, err := experiment.PlanSelection(r.selection, w.params)
		if err != nil {
			return err
		}
		r.grid = plan.Grids[0]
		w.runs = append(w.runs, r)
	}
	w.cells = make(map[string][]shard.Cell)
	return nil
}

func (w *paperSample) SystemsPerPoint() int { return paperSystemsPerPass }

func (w *paperSample) Pass(b *Bench, i, root int) Outcome {
	var o Outcome
	w.last, w.want = w.last[:0], w.want[:0]
	for _, r := range w.runs {
		var cells []int
		for pt := 0; pt < r.grid.Points; pt++ {
			for k := 0; k < paperSystemsPerPass; k++ {
				cells = append(cells, pt*r.grid.Systems+(i*paperSystemsPerPass+k)%r.grid.Systems)
			}
		}
		o.Attempted += len(cells)
		var f *shard.File
		var err error
		var u0 Usage
		if b.Traced() {
			u0 = ReadUsage()
		}
		b.Span(root, spanRunBatch, func(int) {
			f, err = experiment.RunBatchCached(r.selection, w.params, 2, [][]int{cells}, nil)
		})
		if b.Traced() {
			d := ReadUsage().Since(u0)
			b.Count(func(c *Counters) { c.CellCPU += d.CPU })
		}
		if err != nil {
			o.fail(len(cells), "%s pass %d: %v", r.selection, i, err)
			continue
		}
		data, err := b.encodeFile(root, f)
		if err != nil {
			o.fail(len(cells), "%s pass %d: encode: %v", r.selection, i, err)
			continue
		}
		g, err := b.decodeFile(root, data)
		if err != nil {
			o.fail(len(cells), "%s pass %d: decode: %v", r.selection, i, err)
			continue
		}
		w.last, w.want = append(w.last, g), append(w.want, len(cells))
		w.cells[r.selection] = append(w.cells[r.selection], g.Runs[0].Cells...)
	}

	// Partial aggregate over every system sampled so far, then render.
	for _, r := range w.runs {
		for _, name := range r.aggregates {
			var res experiment.Result
			var cov experiment.Coverage
			var err error
			b.Span(root, spanAggregate, func(int) {
				res, cov, err = experiment.FromCellsPartial(name, w.rc, w.cells[r.selection])
			})
			if err != nil {
				o.fail(r.grid.Points*paperSystemsPerPass, "%s pass %d: aggregate: %v", name, i, err)
				continue
			}
			if want := len(w.cells[r.selection]); cov.Have != want {
				o.fail(want-cov.Have, "%s pass %d: cover holds %d of %d cells", name, i, cov.Have, want)
			}
			e, _ := experiment.Lookup(name)
			var out strings.Builder
			b.Span(root, spanRender, func(int) { drawResult(&out, e.Header(w.rc), res) })
		}
	}
	return o
}

// Check verifies that every cell of the pass is present and decodes
// and, when traced, re-executes every cell (each pass samples new
// systems, so every pass is re-executed).
func (w *paperSample) Check(b *Bench, i, root int) Outcome {
	var o Outcome
	for k, f := range w.last {
		if n := f.CellCount(); n != w.want[k] {
			o.fail(w.want[k]-n, "%s pass %d: %d of %d cells present", f.Selection, i, n, w.want[k])
		}
		if bad, note := decodeCells(f); bad > 0 {
			o.fail(bad, "%s pass %d: %s", f.Selection, i, note)
		}
	}
	o.Digest = digestOf(w.last...)
	if b.Traced() {
		k := newChecker(b, w.params)
		for _, f := range w.last {
			o.add(k.checkFile(root, f))
		}
	}
	return o
}
