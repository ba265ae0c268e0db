package ga

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/taskmodel"
	"repro/internal/timing"
)

// referenceLayout is the gene-order repair written the direct way: a
// stable sort of job indices by gene, then priority descending, then
// ID.Task, then ID.J, followed by the same delay-and-snap pass. The
// evaluator's pre-ranked insertion sort must reproduce it exactly.
func referenceLayout(jobs []taskmodel.Job, genes []timing.Time, snap bool) (order []int, starts []timing.Time, ok bool) {
	order = make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := &jobs[order[a]], &jobs[order[b]]
		ga, gb := genes[order[a]], genes[order[b]]
		if ga != gb {
			return ga < gb
		}
		if ja.P != jb.P {
			return ja.P > jb.P
		}
		if ja.ID.Task != jb.ID.Task {
			return ja.ID.Task < jb.ID.Task
		}
		return ja.ID.J < jb.ID.J
	})
	starts = make([]timing.Time, len(jobs))
	var cursor timing.Time
	for oi, idx := range order {
		j := &jobs[idx]
		start := max(genes[idx], j.Release, cursor)
		if snap && start <= j.Ideal {
			snapped := j.Ideal
			if oi+1 < len(order) && snapped+j.C > genes[order[oi+1]] {
				snapped = start
			}
			start = snapped
		}
		if start+j.C > j.Deadline {
			return order, nil, false
		}
		starts[idx] = start
		cursor = start + j.C
	}
	return order, starts, true
}

// checkLayout lays out random gene vectors drawn inside each job's gene
// bounds (or all equal to one instant, when equal is set) and compares
// the evaluator's order, verdict and start times with referenceLayout.
func checkLayout(t *testing.T, name string, jobs []taskmodel.Job, rng *rand.Rand, trials int, equal bool) {
	t.Helper()
	bs := make([]bounds, len(jobs))
	for i := range jobs {
		b, err := geneBounds(&jobs[i])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bs[i] = b
	}
	for _, snap := range []bool{true, false} {
		opts := DefaultOptions()
		opts.SnapToIdeal = snap
		opts.normalize(len(jobs))
		p, err := newPlan(jobs, bs, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := evaluator{plan: p}
		genes := make([]timing.Time, len(jobs))
		for trial := 0; trial < trials; trial++ {
			at := randomGene(rng, bs[0])
			for i := range genes {
				if equal {
					genes[i] = at
				} else {
					genes[i] = randomGene(rng, bs[i])
				}
			}
			wantOrder, wantStarts, wantOK := referenceLayout(jobs, genes, snap)
			gotOK := e.layout(genes)
			gotOrder := make([]int, len(e.keys))
			for k, key := range e.keys {
				gotOrder[k] = int(key.idx)
			}
			if !slices.Equal(gotOrder, wantOrder) {
				t.Fatalf("%s snap=%v trial %d: order %v, want %v", name, snap, trial, gotOrder, wantOrder)
			}
			if gotOK != wantOK {
				t.Fatalf("%s snap=%v trial %d: feasible %v, want %v", name, snap, trial, gotOK, wantOK)
			}
			if wantOK && !slices.Equal(e.starts, wantStarts) {
				t.Fatalf("%s snap=%v trial %d: starts %v, want %v", name, snap, trial, e.starts, wantStarts)
			}
		}
	}
}

// TestLayoutMatchesStableComparator pins the pre-ranked layout to the
// stable-sort reference on paper systems, on equal genes across mixed
// priorities (every tie goes to the rank) and on wide, fully overlapping
// windows (the insertion sort's worst case: keys arrive in no useful
// order). Repeated job IDs check that the rank falls back to job index as
// a stable sort would.
func TestLayoutMatchesStableComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := gen.PaperConfig()
	for _, u := range []float64{0.3, 0.6, 0.9} {
		ts, err := cfg.System(rand.New(rand.NewSource(int64(u*10))), u)
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, "paper", ts.Jobs(), rng, 300, false)
	}

	// One shared window [0, 10000]: every job may land anywhere.
	wide := make([]taskmodel.Job, 48)
	for i := range wide {
		wide[i] = taskmodel.Job{
			ID:       taskmodel.JobID{Task: rng.Intn(6), J: rng.Intn(4)},
			Release:  0,
			Deadline: 10000 + timing.Time(rng.Intn(200)),
			Ideal:    5000,
			C:        timing.Time(1 + rng.Intn(40)),
			P:        rng.Intn(3),
			Theta:    6000,
			Vmax:     2,
			Vmin:     1,
		}
	}
	// Reverse the windows' natural order so the lo ordering gives no hint.
	slices.Reverse(wide)
	checkLayout(t, "wide", wide, rng, 300, false)
	checkLayout(t, "equal", wide, rng, 50, true)
}
