package quality

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/taskmodel"
	"repro/internal/timing"
)

func job(ideal, c, theta timing.Time, vmax, vmin float64) taskmodel.Job {
	return taskmodel.Job{
		ID:       taskmodel.JobID{Task: 0, J: 0},
		Release:  0,
		Deadline: ideal + theta + c + 1000,
		Ideal:    ideal,
		C:        c,
		Theta:    theta,
		Vmax:     vmax,
		Vmin:     vmin,
	}
}

func TestLinearCurveShape(t *testing.T) {
	j := job(100, 10, 40, 9, 1)
	curve := Linear{}
	cases := []struct {
		t    timing.Time
		want float64
	}{
		{100, 9}, // exact: Vmax
		{60, 1},  // boundary edge: Vmin
		{140, 1}, // boundary edge: Vmin
		{80, 5},  // halfway: midpoint of [1,9]
		{120, 5},
		{0, 1},   // far outside: Vmin
		{500, 1}, // far outside: Vmin
		{110, 7}, // quarter out
	}
	for _, c := range cases {
		if got := curve.Value(&j, c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("V(%d) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestLinearZeroTheta(t *testing.T) {
	j := job(100, 10, 0, 5, 1)
	curve := Linear{}
	if got := curve.Value(&j, 100); got != 5 {
		t.Errorf("exact with θ=0: %g, want 5", got)
	}
	if got := curve.Value(&j, 101); got != 1 {
		t.Errorf("off by one with θ=0: %g, want 1", got)
	}
}

func TestPenalisedCurve(t *testing.T) {
	j := job(100, 10, 40, 9, 1)
	curve := Penalised{Base: Linear{}, Penalty: -1000}
	if got := curve.Value(&j, 100); got != 9 {
		t.Errorf("exact = %g, want 9", got)
	}
	if got := curve.Value(&j, 80); got != 5 {
		t.Errorf("inside boundary = %g, want 5", got)
	}
	if got := curve.Value(&j, 200); got != -1000 {
		t.Errorf("outside boundary = %g, want -1000", got)
	}
	if got := curve.Value(&j, 140); got != -1000 {
		t.Errorf("at boundary edge = %g, want penalty", got)
	}
}

// TestPenalisedBoundaryConsistency pins the on-boundary semantics against
// Linear's: both curves treat dist == Theta as outside the timing
// boundary (Linear clamps to Vmin there, so Penalised must already apply
// the penalty there, not one tick later).
func TestPenalisedBoundaryConsistency(t *testing.T) {
	j := job(100, 10, 40, 9, 1)
	lin := Linear{}
	pen := Penalised{Base: lin, Penalty: -1000}
	for _, tc := range []struct {
		t       timing.Time
		linWant float64
		out     bool // outside the boundary under both curves
	}{
		{60, 1, true},     // dist == Theta, early edge
		{140, 1, true},    // dist == Theta, late edge
		{61, 1.2, false},  // one tick inside the early edge
		{139, 1.2, false}, // one tick inside the late edge
		{59, 1, true},     // one tick outside
		{100, 9, false},   // exact
	} {
		if got := lin.Value(&j, tc.t); math.Abs(got-tc.linWant) > 1e-12 {
			t.Errorf("Linear V(%d) = %g, want %g", tc.t, got, tc.linWant)
		}
		got := pen.Value(&j, tc.t)
		if tc.out {
			if got != -1000 {
				t.Errorf("Penalised V(%d) = %g, want penalty (Linear gives Vmin here)", tc.t, got)
			}
		} else if want := lin.Value(&j, tc.t); got != want {
			t.Errorf("Penalised V(%d) = %g, want base %g", tc.t, got, want)
		}
	}
}

// TestPenalisedZeroTheta: for a θ=0 job every start is on the boundary
// (dist >= Theta always holds), so only the exact instant escapes the
// penalty — mirroring Linear, whose θ=0 special case only rewards the
// exact instant with Vmax.
func TestPenalisedZeroTheta(t *testing.T) {
	j := job(100, 10, 0, 5, 1)
	lin := Linear{}
	pen := Penalised{Base: lin, Penalty: -1000}
	if got := pen.Value(&j, 100); got != 5 {
		t.Errorf("exact with θ=0: %g, want base Vmax 5", got)
	}
	if got := lin.Value(&j, 100); got != 5 {
		t.Errorf("Linear exact with θ=0: %g, want 5", got)
	}
	for _, at := range []timing.Time{99, 101, 0, 500} {
		if got := pen.Value(&j, at); got != -1000 {
			t.Errorf("θ=0 off-ideal V(%d) = %g, want penalty", at, got)
		}
		if got := lin.Value(&j, at); got != 1 {
			t.Errorf("θ=0 off-ideal Linear V(%d) = %g, want Vmin", at, got)
		}
	}
}

func twoJobs() []taskmodel.Job {
	a := job(100, 10, 40, 9, 1)
	a.ID = taskmodel.JobID{Task: 0, J: 0}
	b := job(300, 10, 40, 5, 1)
	b.ID = taskmodel.JobID{Task: 1, J: 0}
	return []taskmodel.Job{a, b}
}

func TestPsi(t *testing.T) {
	jobs := twoJobs()
	cases := []struct {
		starts StartTimes
		want   float64
	}{
		{StartTimes{jobs[0].ID: 100, jobs[1].ID: 300}, 1.0},
		{StartTimes{jobs[0].ID: 100, jobs[1].ID: 301}, 0.5},
		{StartTimes{jobs[0].ID: 99, jobs[1].ID: 301}, 0.0},
	}
	for i, c := range cases {
		got, err := Psi(jobs, c.starts)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Errorf("case %d: Ψ = %g, want %g", i, got, c.want)
		}
	}
}

func TestPsiMissingStart(t *testing.T) {
	jobs := twoJobs()
	if _, err := Psi(jobs, StartTimes{jobs[0].ID: 100}); err == nil {
		t.Fatal("expected error for missing start")
	}
}

func TestPsiEmpty(t *testing.T) {
	got, err := Psi(nil, nil)
	if err != nil || got != 0 {
		t.Fatalf("Psi(nil) = %g, %v", got, err)
	}
}

func TestUpsilon(t *testing.T) {
	jobs := twoJobs()
	curve := Linear{}
	// All ideal: Υ = 1.
	got, err := Upsilon(jobs, StartTimes{jobs[0].ID: 100, jobs[1].ID: 300}, curve)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Fatalf("all-ideal Υ = %g, %v", got, err)
	}
	// First at midpoint (V=5 of 9), second ideal (V=5 of 5): (5+5)/(9+5).
	got, err = Upsilon(jobs, StartTimes{jobs[0].ID: 80, jobs[1].ID: 300}, curve)
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0 / 14.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Υ = %g, want %g", got, want)
	}
	// Both far out: (1+1)/(9+5).
	got, _ = Upsilon(jobs, StartTimes{jobs[0].ID: 500, jobs[1].ID: 700}, curve)
	want = 2.0 / 14.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("worst-case Υ = %g, want %g", got, want)
	}
}

// TestMetricsOnRandomSchedules: over randomised schedules and every
// curve, Ψ and Υ equal their definitions term for term — exact jobs over
// all jobs, and Σ V(κ) over Σ V(δ) with both sums taken in job order.
// Callers that score index-keyed schedules (the GA's fitness evaluator)
// rely on that order to match these functions bit for bit.
func TestMetricsOnRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	curves := []Curve{Linear{}, Penalised{Base: Linear{}, Penalty: -1000}, Exponential{Sharpness: 2}}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		jobs := make([]taskmodel.Job, n)
		m := make(StartTimes, n)
		exact := 0
		for i := range jobs {
			ideal := timing.Time(100 + rng.Intn(1000))
			jobs[i] = taskmodel.Job{
				ID:       taskmodel.JobID{Task: i / 3, J: i % 3},
				Release:  0,
				Deadline: ideal + 2000,
				Ideal:    ideal,
				C:        timing.Time(1 + rng.Intn(20)),
				Theta:    timing.Time(10 + rng.Intn(100)),
				P:        rng.Intn(4),
				Vmax:     2 + rng.Float64()*8,
				Vmin:     1,
			}
			start := ideal
			if rng.Intn(2) == 0 {
				start += timing.Time(rng.Intn(300)) - 150
			}
			if start == ideal {
				exact++
			}
			m[jobs[i].ID] = start
		}
		psi, err := Psi(jobs, m)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(exact) / float64(n); psi != want {
			t.Fatalf("trial %d: Ψ = %g, want %g", trial, psi, want)
		}
		for _, c := range curves {
			var got, ideal float64
			for i := range jobs {
				got += c.Value(&jobs[i], m[jobs[i].ID])
				ideal += c.Value(&jobs[i], jobs[i].Ideal)
			}
			ups, err := Upsilon(jobs, m, c)
			if err != nil {
				t.Fatal(err)
			}
			if want := got / ideal; ups != want {
				t.Fatalf("trial %d: Υ = %g, want %g (curve %T)", trial, ups, want, c)
			}
		}
	}
}

func TestUpsilonErrors(t *testing.T) {
	jobs := twoJobs()
	if _, err := Upsilon(jobs, StartTimes{jobs[0].ID: 100}, Linear{}); err == nil {
		t.Error("expected error for missing start")
	}
	// Non-positive ideal sum (degenerate Vmax=Vmin=0).
	z := job(100, 10, 40, 0, 0)
	if _, err := Upsilon([]taskmodel.Job{z}, StartTimes{z.ID: 100}, Linear{}); err == nil {
		t.Error("expected error for zero ideal quality")
	}
}

func TestAccuracy(t *testing.T) {
	j := job(100, 10, 40, 9, 1)
	if Accuracy(&j, 100) != 0 {
		t.Error("exact accuracy should be 0")
	}
	if Accuracy(&j, 90) != 10 || Accuracy(&j, 110) != 10 {
		t.Error("accuracy should be symmetric")
	}
}

func TestMeasureAccuracy(t *testing.T) {
	jobs := twoJobs()
	starts := StartTimes{jobs[0].ID: 100, jobs[1].ID: 350}
	s, err := MeasureAccuracy(jobs, starts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Exact != 1 || s.Total != 2 {
		t.Errorf("exact/total = %d/%d", s.Exact, s.Total)
	}
	if s.MaxDeviation != 50 {
		t.Errorf("max dev = %v, want 50", s.MaxDeviation)
	}
	if s.MeanDeviation != 25 {
		t.Errorf("mean dev = %g, want 25", s.MeanDeviation)
	}
	// job 1 deviates 50 > θ=40, so only job 0 is within boundary.
	if s.WithinBoundary != 1 {
		t.Errorf("within boundary = %d, want 1", s.WithinBoundary)
	}
	if _, err := MeasureAccuracy(jobs, StartTimes{}); err == nil {
		t.Error("expected error for missing starts")
	}
}

// Property: the linear curve is bounded by [Vmin, Vmax], symmetric about δ,
// and non-increasing in |t − δ|.
func TestLinearCurveProperties(t *testing.T) {
	curve := Linear{}
	f := func(idealRaw, thetaRaw uint16, d1, d2 uint16, vmaxRaw uint8) bool {
		ideal := timing.Time(idealRaw) + 1000
		theta := timing.Time(thetaRaw % 500)
		vmax := float64(vmaxRaw%20) + 1.5
		j := job(ideal, 10, theta, vmax, 1)
		a := timing.Time(d1 % 1000)
		b := timing.Time(d2 % 1000)
		va := curve.Value(&j, ideal+a)
		vb := curve.Value(&j, ideal+b)
		// Bounds.
		if va < 1-1e-9 || va > vmax+1e-9 {
			return false
		}
		// Symmetry.
		if math.Abs(curve.Value(&j, ideal-a)-va) > 1e-9 {
			return false
		}
		// Monotone decay: larger deviation never yields higher value.
		if a <= b && va < vb-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Ψ and Υ are in [0, 1] for feasible schedules with Vmin ≥ 0,
// and Υ = 1 whenever Ψ = 1.
func TestMetricProperties(t *testing.T) {
	f := func(offsets [4]int16) bool {
		jobs := make([]taskmodel.Job, 4)
		starts := StartTimes{}
		for i := range jobs {
			jobs[i] = job(timing.Time(1000*(i+1)), 10, 100, float64(i+2), 1)
			jobs[i].ID = taskmodel.JobID{Task: i, J: 0}
			starts[jobs[i].ID] = jobs[i].Ideal + timing.Time(offsets[i]%300)
		}
		psi, err := Psi(jobs, starts)
		if err != nil {
			return false
		}
		ups, err := Upsilon(jobs, starts, Linear{})
		if err != nil {
			return false
		}
		if psi < 0 || psi > 1 || ups < 0 || ups > 1+1e-9 {
			return false
		}
		if psi == 1 && math.Abs(ups-1) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestExponentialCurve(t *testing.T) {
	j := job(100, 10, 40, 9, 1)
	curve := Exponential{Sharpness: 2}
	if got := curve.Value(&j, 100); math.Abs(got-9) > 1e-12 {
		t.Errorf("exact = %g, want Vmax", got)
	}
	if got := curve.Value(&j, 140); got != 1 {
		t.Errorf("boundary edge = %g, want Vmin", got)
	}
	if got := curve.Value(&j, 500); got != 1 {
		t.Errorf("outside = %g, want Vmin", got)
	}
	// Steeper than linear at the same mid-point deviation.
	lin := Linear{}
	mid := curve.Value(&j, 120)
	if mid >= lin.Value(&j, 120) {
		t.Errorf("exponential mid = %g should be below linear %g", mid, lin.Value(&j, 120))
	}
	if mid <= 1 || mid >= 9 {
		t.Errorf("mid = %g out of (Vmin, Vmax)", mid)
	}
	// Zero sharpness falls back to the default.
	d := Exponential{}
	if got := d.Value(&j, 120); math.Abs(got-mid) > 1e-12 {
		t.Errorf("default sharpness mismatch: %g vs %g", got, mid)
	}
	// θ = 0 degenerates to a spike.
	z := job(100, 10, 0, 5, 1)
	if curve.Value(&z, 100) != 5 || curve.Value(&z, 101) != 1 {
		t.Error("zero-θ exponential broken")
	}
}

// Property: the exponential curve is bounded, symmetric and monotone, like
// the linear one.
func TestExponentialCurveProperties(t *testing.T) {
	curve := Exponential{Sharpness: 3}
	f := func(d1, d2 uint16) bool {
		j := job(5000, 10, 400, 7, 1)
		a := timing.Time(d1 % 800)
		b := timing.Time(d2 % 800)
		va := curve.Value(&j, 5000+a)
		if va < 1-1e-9 || va > 7+1e-9 {
			return false
		}
		if math.Abs(curve.Value(&j, 5000-a)-va) > 1e-9 {
			return false
		}
		vb := curve.Value(&j, 5000+b)
		if a <= b && va < vb-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
