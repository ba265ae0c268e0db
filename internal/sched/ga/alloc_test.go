package ga

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// TestSolveAllocationBudget guards the allocation-free generation loop:
// the population lives in one double-buffered arena, the random source is
// reseeded rather than rebuilt each generation, and fitness evaluation
// runs on per-worker scratch. What remains is per-Solve set-up and archive
// bookkeeping (about 40 allocations in this shape, 20 × 10 children), so
// an allocation per child creeping back in blows the budget.
func TestSolveAllocationBudget(t *testing.T) {
	cfg := gen.PaperConfig()
	ts, err := cfg.System(rand.New(rand.NewSource(1)), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	jobs := ts.Jobs()
	opts := DefaultOptions()
	opts.Population = 20
	opts.Generations = 10
	seed := int64(0)
	allocs := testing.AllocsPerRun(5, func() {
		opts.Seed = seed
		seed++
		if _, err := Solve(jobs, opts); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 150
	if allocs > budget {
		t.Fatalf("Solve allocated %.0f times per run, budget %d — the hot path has regressed", allocs, budget)
	}
}
