package main

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/shard"
)

// heuristicsSystems is the systems count per point of the heuristics
// workload's tailq (15 points) and multidevice (4 device counts) grids.
const heuristicsSystems = 400

// heuristics runs the full tailq and multidevice grids in process with
// parallelism 2. Neither runs the GA, so generation, static scheduling on
// one and on partitioned devices, per-job scoring, encoding, merging,
// aggregation and rendering carry all the time. Set-up computes the
// grids serially; every pass must reproduce that reference exactly.
type heuristics struct {
	params     experiment.ShardParams
	selections []string
	cells      []int         // grid cells per selection
	ref        string        // digest of the serial reference run
	files      []*shard.File // the pass's merged files, for the check
}

func (w *heuristics) Setup(b *Bench) error {
	w.params = experiment.ShardParams{Seed: b.Seed, Systems: heuristicsSystems}.Normalised()
	w.selections = []string{experiment.ExpTailQ, experiment.ExpMultiDevice}
	w.cells = w.cells[:0]
	for _, sel := range w.selections {
		plan, err := experiment.PlanSelection(sel, w.params)
		if err != nil {
			return err
		}
		w.cells = append(w.cells, plan.Grids[0].Cells())
	}
	// The serial in-process reference: every pass runs with parallelism
	// 2 and must reproduce it byte for byte.
	refs := make([]*shard.File, len(w.selections))
	for si, sel := range w.selections {
		f, err := experiment.RunShard(sel, w.params, 1, 1, 0)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		refs[si] = f
	}
	w.ref = digestOf(refs...)
	return nil
}

func (w *heuristics) SystemsPerPoint() int { return heuristicsSystems }

func (w *heuristics) Pass(b *Bench, i, root int) Outcome {
	var o Outcome
	w.files = w.files[:0]
	for si, sel := range w.selections {
		n := w.cells[si]
		o.Attempted += n
		var f *shard.File
		var err error
		var u0 Usage
		if b.Traced() && i == 0 {
			u0 = ReadUsage()
		}
		b.Span(root, spanRunShard, func(int) { f, err = experiment.RunShard(sel, w.params, 2, 1, 0) })
		if b.Traced() && i == 0 {
			d := ReadUsage().Since(u0)
			b.Count(func(c *Counters) { c.CellCPU += d.CPU })
		}
		if err != nil {
			o.fail(n, "%s pass %d: %v", sel, i, err)
			continue
		}
		data, err := b.encodeFile(root, f)
		if err != nil {
			o.fail(n, "%s pass %d: encode: %v", sel, i, err)
			continue
		}
		g, err := b.decodeFile(root, data)
		if err != nil {
			o.fail(n, "%s pass %d: decode: %v", sel, i, err)
			continue
		}
		var merged *shard.File
		b.Span(root, spanMerge, func(int) { merged, err = shard.Merge([]*shard.File{g}) })
		if err != nil {
			o.fail(n, "%s pass %d: merge: %v", sel, i, err)
			continue
		}
		if _, err := b.render(root, merged); err != nil {
			o.fail(n, "%s pass %d: aggregate: %v", sel, i, err)
		}
		w.files = append(w.files, merged)
	}
	return o
}

// Check holds the pass's payloads to the serial reference digest and,
// when traced, re-executes every cell of pass 0 (later passes compute
// the same cells).
func (w *heuristics) Check(b *Bench, i, root int) Outcome {
	var o Outcome
	for _, f := range w.files {
		if bad, note := decodeCells(f); bad > 0 {
			o.fail(bad, "%s pass %d: %s", f.Selection, i, note)
		}
	}
	o.Digest = digestOf(w.files...)
	if o.Digest != w.ref {
		o.fail(w.cells[0]+w.cells[1], "pass %d payloads differ from the serial reference (sha256 %s vs %s)", i, o.Digest, w.ref)
	}
	if b.Traced() && i == 0 {
		k := newChecker(b, w.params)
		for _, f := range w.files {
			o.add(k.checkFile(root, f))
		}
	}
	return o
}
