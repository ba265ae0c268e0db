package ga

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/quality"
	"repro/internal/sched"
	"repro/internal/sched/staticsched"
	"repro/internal/taskmodel"
	"repro/internal/timing"
)

func mkJob(task, j int, release, deadline, ideal, c timing.Time, p int) taskmodel.Job {
	return taskmodel.Job{
		ID:       taskmodel.JobID{Task: task, J: j},
		Release:  release,
		Deadline: deadline,
		Ideal:    ideal,
		C:        c,
		P:        p,
		Theta:    (deadline - release) / 4,
		Vmax:     float64(p) + 1,
		Vmin:     1,
	}
}

func testOpts(seed int64) Options {
	o := DefaultOptions()
	o.Population = 24
	o.Generations = 30
	o.Seed = seed
	return o
}

func TestEmptyPartition(t *testing.T) {
	res, err := Solve(nil, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) != 1 {
		t.Fatalf("front = %v", res.Front)
	}
}

func TestConflictFreeReachesOptimal(t *testing.T) {
	jobs := []taskmodel.Job{
		mkJob(0, 0, 0, 200, 50, 10, 2),
		mkJob(1, 0, 0, 200, 120, 10, 1),
	}
	res, err := Solve(jobs, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	best := res.BestPsi()
	if best.Psi != 1 || best.Upsilon != 1 {
		t.Errorf("best = (%g, %g), want (1,1)", best.Psi, best.Upsilon)
	}
}

func TestConflictingJobsTradeoff(t *testing.T) {
	// Two jobs with identical ideals: at most one can be exact.
	jobs := []taskmodel.Job{
		mkJob(0, 0, 0, 400, 100, 20, 2),
		mkJob(1, 0, 0, 400, 100, 20, 1),
	}
	res, err := Solve(jobs, testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	best := res.BestPsi()
	if best.Psi != 0.5 {
		t.Errorf("best Ψ = %g, want 0.5", best.Psi)
	}
	// The displaced job should stay near the boundary, keeping Υ well
	// above the minimum-quality floor.
	if best.Upsilon < 0.6 {
		t.Errorf("best-Ψ solution Υ = %g, suspiciously low", best.Upsilon)
	}
}

func TestFrontIsNonDominated(t *testing.T) {
	jobs := []taskmodel.Job{
		mkJob(0, 0, 0, 400, 100, 30, 3),
		mkJob(1, 0, 0, 400, 110, 30, 2),
		mkJob(2, 0, 0, 400, 120, 30, 1),
	}
	res, err := Solve(jobs, testOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Front {
		for k := range res.Front {
			if i == k {
				continue
			}
			a, b := res.Front[i], res.Front[k]
			if a.Psi >= b.Psi && a.Upsilon >= b.Upsilon && (a.Psi > b.Psi || a.Upsilon > b.Upsilon) {
				t.Fatalf("front member %d dominates member %d", i, k)
			}
		}
	}
	// Front sorted by decreasing Ψ.
	for i := 1; i < len(res.Front); i++ {
		if res.Front[i-1].Psi < res.Front[i].Psi {
			t.Fatal("front not sorted by Ψ")
		}
	}
}

func TestAllSolutionsFeasible(t *testing.T) {
	cfg := gen.PaperConfig()
	ts, err := cfg.System(rand.New(rand.NewSource(5)), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	jobs := ts.Jobs()
	res, err := Solve(jobs, testOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, sol := range res.Front {
		if _, err := sched.New(jobs, sol.Starts); err != nil {
			t.Fatalf("front solution (Ψ=%g, Υ=%g) infeasible: %v", sol.Psi, sol.Upsilon, err)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := gen.PaperConfig()
	ts, _ := cfg.System(rand.New(rand.NewSource(7)), 0.4)
	jobs := ts.Jobs()
	a, err := Solve(jobs, testOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(jobs, testOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Front) != len(b.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(a.Front), len(b.Front))
	}
	for i := range a.Front {
		if a.Front[i].Psi != b.Front[i].Psi || a.Front[i].Upsilon != b.Front[i].Upsilon {
			t.Fatalf("front %d differs", i)
		}
	}
}

func TestGeneBoundsRespectTimingBoundary(t *testing.T) {
	j := mkJob(0, 0, 1000, 2000, 1400, 50, 1)
	b, err := geneBounds(&j)
	if err != nil {
		t.Fatal(err)
	}
	if b.lo != 1400-j.Theta {
		t.Errorf("lo = %v, want %v", b.lo, 1400-j.Theta)
	}
	if b.hi != 1400+j.Theta {
		t.Errorf("hi = %v, want %v", b.hi, 1400+j.Theta)
	}
	// Degenerate job: C bigger than boundary allows → window fallback.
	j2 := taskmodel.Job{
		ID: taskmodel.JobID{Task: 1, J: 0}, Release: 0, Deadline: 100,
		Ideal: 95, C: 60, Theta: 2, Vmax: 2, Vmin: 1,
	}
	b2, err := geneBounds(&j2)
	if err != nil {
		t.Fatal(err)
	}
	if b2.lo != 0 || b2.hi != 40 {
		t.Errorf("fallback bounds = [%v, %v], want [0, 40]", b2.lo, b2.hi)
	}
	// Impossible job: C > D.
	j3 := taskmodel.Job{
		ID: taskmodel.JobID{Task: 2, J: 0}, Release: 0, Deadline: 50,
		Ideal: 10, C: 60, Theta: 5, Vmax: 2, Vmin: 1,
	}
	if _, err := geneBounds(&j3); !errors.Is(err, sched.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSchedulerInterface(t *testing.T) {
	jobs := []taskmodel.Job{
		mkJob(0, 0, 0, 200, 50, 10, 2),
		mkJob(1, 0, 0, 200, 120, 10, 1),
	}
	s := &Scheduler{Opts: testOpts(11)}
	if s.Name() != "ga" {
		t.Error("name")
	}
	schedule, err := s.Schedule(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBestSelectors(t *testing.T) {
	r := &Result{Front: []Solution{
		{Psi: 0.9, Upsilon: 0.5},
		{Psi: 0.5, Upsilon: 0.9},
		{Psi: 0.7, Upsilon: 0.75},
	}}
	if got := r.BestPsi(); got.Psi != 0.9 {
		t.Errorf("BestPsi = %+v", got)
	}
	if got := r.BestUpsilon(); got.Upsilon != 0.9 {
		t.Errorf("BestUpsilon = %+v", got)
	}
	if got := r.Best(0.5); got.Psi != 0.7 {
		t.Errorf("Best(0.5) = %+v", got)
	}
}

func TestGAUpsilonBeatsStaticOnPaperSystems(t *testing.T) {
	// Figure 7's qualitative claim: the GA's best-Υ solution matches or
	// beats the static heuristic's Υ (whose sacrificed jobs land at
	// schedulability-driven positions). Averaged over a few systems to
	// damp stochastic jitter.
	cfg := gen.PaperConfig()
	var gaSum, stSum float64
	n := 0
	for seed := int64(0); seed < 6; seed++ {
		ts, err := cfg.System(rand.New(rand.NewSource(seed)), 0.6)
		if err != nil {
			t.Fatal(err)
		}
		jobs := ts.Jobs()
		st, err := staticsched.New(staticsched.Options{}).Schedule(jobs)
		if err != nil {
			continue
		}
		opts := DefaultOptions()
		opts.Seed = seed
		res, err := Solve(jobs, opts)
		if err != nil {
			continue
		}
		gaSum += res.BestUpsilon().Upsilon
		stSum += st.Upsilon(quality.Linear{})
		n++
	}
	if n < 3 {
		t.Fatalf("too few feasible systems: %d", n)
	}
	if gaSum < stSum-0.05*float64(n) {
		t.Errorf("mean GA Υ %.3f < mean static Υ %.3f", gaSum/float64(n), stSum/float64(n))
	}
}

// Property: every front solution satisfies Constraint 1 and 2, all genes
// lie in the timing boundary or window, and metrics are within [0, 1].
func TestSolveProperty(t *testing.T) {
	cfg := gen.PaperConfig()
	f := func(seed int64, uRaw uint8) bool {
		u := 0.2 + float64(uRaw%14)*0.05
		ts, err := cfg.System(rand.New(rand.NewSource(seed)), u)
		if err != nil {
			return false
		}
		jobs := ts.Jobs()
		opts := testOpts(seed)
		opts.Generations = 10
		res, err := Solve(jobs, opts)
		if err != nil {
			return errors.Is(err, sched.ErrInfeasible)
		}
		for _, sol := range res.Front {
			if sol.Psi < 0 || sol.Psi > 1 || sol.Upsilon < 0 || sol.Upsilon > 1+1e-9 {
				return false
			}
			if _, err := sched.New(jobs, sol.Starts); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestSolveParallelismInvariant pins the determinism contract on
// Options.Seed: the evolved front — values and Starts alike — is
// deep-equal at parallelism 1, 2 and NumCPU.
func TestSolveParallelismInvariant(t *testing.T) {
	cfg := gen.PaperConfig()
	for _, u := range []float64{0.4, 0.7} {
		ts, err := cfg.System(rand.New(rand.NewSource(13)), u)
		if err != nil {
			t.Fatal(err)
		}
		jobs := ts.Jobs()
		opts := testOpts(17)
		opts.Parallelism = 1
		ref, err := Solve(jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4, runtime.NumCPU()} {
			opts.Parallelism = par
			got, err := Solve(jobs, opts)
			if err != nil {
				t.Fatalf("u=%g parallelism %d: %v", u, par, err)
			}
			if !reflect.DeepEqual(ref.Front, got.Front) {
				t.Errorf("u=%g: front at parallelism %d differs from serial front", u, par)
			}
		}
	}
}

// TestFrontScoresMatchQuality: the evaluator's hoisted scoring is the
// quality package's Ψ and Υ, bit for bit, for the fast Linear path and
// for curves scored through the interface alike.
func TestFrontScoresMatchQuality(t *testing.T) {
	cfg := gen.PaperConfig()
	curves := []quality.Curve{quality.Linear{}, quality.Penalised{Base: quality.Linear{}, Penalty: -1000}, quality.Exponential{Sharpness: 3}}
	for _, curve := range curves {
		for seed := int64(0); seed < 3; seed++ {
			ts, err := cfg.System(rand.New(rand.NewSource(seed)), 0.4+0.2*float64(seed))
			if err != nil {
				t.Fatal(err)
			}
			jobs := ts.Jobs()
			opts := testOpts(seed)
			opts.Curve = curve
			res, err := Solve(jobs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, sol := range res.Front {
				psi, err := quality.Psi(jobs, sol.Starts)
				if err != nil {
					t.Fatal(err)
				}
				ups, err := quality.Upsilon(jobs, sol.Starts, curve)
				if err != nil {
					t.Fatal(err)
				}
				if sol.Psi != psi || sol.Upsilon != ups {
					t.Fatalf("%T seed %d: front scores (%v, %v), quality package (%v, %v)", curve, seed, sol.Psi, sol.Upsilon, psi, ups)
				}
			}
		}
	}
}

// TestSolveRejectsNonPositiveIdealQuality: Υ is undefined when the
// all-ideal quality sum is not positive, so Solve refuses the job set.
func TestSolveRejectsNonPositiveIdealQuality(t *testing.T) {
	j := mkJob(0, 0, 0, 200, 50, 10, 2)
	j.Vmax, j.Vmin = 0, 0
	if _, err := Solve([]taskmodel.Job{j}, testOpts(1)); err == nil {
		t.Fatal("Solve accepted a job set whose ideal quality sum is 0")
	}
}
