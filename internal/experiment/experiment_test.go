package experiment

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// fastConfig keeps the integration tests quick while preserving enough
// samples for the qualitative assertions.
func fastConfig() Config {
	cfg := Default()
	cfg.Systems = 12
	cfg.GA.Population = 16
	cfg.GA.Generations = 10
	return cfg
}

func TestFig5Utils(t *testing.T) {
	us := Fig5Utils()
	if len(us) != 15 {
		t.Fatalf("x axis has %d points, want 15 (0.20..0.90 step 0.05): %v", len(us), us)
	}
	if us[0] != 0.20 || us[len(us)-1] != 0.90 {
		t.Errorf("range = [%g, %g]", us[0], us[len(us)-1])
	}
}

// TestRound2 pins half-away-from-zero rounding. Regression: the previous
// int-truncation formula rounded negative inputs toward zero (−0.005 →
// 0.00 instead of −0.01), which would silently corrupt any metric that
// can go negative, such as a Penalised-curve Υ.
func TestRound2(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{0.20, 0.20},
		{0.204, 0.20},
		{0.205, 0.21},
		{0.8999999, 0.90},
		{1.0, 1.0},
		{-0.005, -0.01},
		{-0.204, -0.20},
		{-0.205, -0.21},
		{-1.239, -1.24},
		{-999.999, -1000.0},
	}
	for _, tc := range cases {
		if got := round2(tc.in); got != tc.want {
			t.Errorf("round2(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := fastConfig()
	res, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 15 {
		t.Fatalf("points = %d", len(res.Points))
	}
	at := func(u float64) Fig5Point {
		for _, p := range res.Points {
			if p.U == u {
				return p
			}
		}
		t.Fatalf("no point at %g", u)
		return Fig5Point{}
	}
	low, high := at(0.30), at(0.90)
	// FPS-offline schedules essentially everything (the paper's boundary
	// condition; the harmonic generation was calibrated for it).
	if v := high.Rates[MethodFPSOffline].Value(); v < 0.9 {
		t.Errorf("FPS-offline at 0.9 = %g, want ≈ 1", v)
	}
	// The proposed methods stay at or above FPS-online...
	for _, m := range []string{MethodStatic, MethodGA} {
		if high.Rates[m].Value() < high.Rates[MethodFPSOnline].Value()-1e-9 {
			t.Errorf("%s at 0.9 = %g below FPS-online %g", m,
				high.Rates[m].Value(), high.Rates[MethodFPSOnline].Value())
		}
	}
	// ...and everything beats GPIOCP, which collapses at high U.
	if v := high.Rates[MethodGPIOCP].Value(); v > 0.25 {
		t.Errorf("GPIOCP at 0.9 = %g, expected collapse", v)
	}
	if lowV, highV := low.Rates[MethodGPIOCP].Value(), high.Rates[MethodGPIOCP].Value(); lowV < highV {
		t.Errorf("GPIOCP should fall with U: %g@0.3 vs %g@0.9", lowV, highV)
	}
	// Rows/Series agree with the data.
	h, rows := res.Rows()
	if len(h) != 6 || len(rows) != 15 {
		t.Errorf("table shape %dx%d", len(h), len(rows))
	}
	x, series := res.Series()
	if len(x) != 15 || len(series) != 5 {
		t.Errorf("series shape %d/%d", len(x), len(series))
	}
}

func TestFig6And7ShapesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := fastConfig()
	psi, ups, err := Fig6And7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(psi.Points) != 5 || len(ups.Points) != 5 {
		t.Fatalf("points = %d/%d", len(psi.Points), len(ups.Points))
	}
	psiMeans := psi.SummaryStats()
	upsMeans := ups.SummaryStats()
	// Figure 6: FPS achieves no exact jobs; static ≥ GA ≥ GPIOCP overall.
	if psiMeans[MethodFPSOffline] > 0.02 {
		t.Errorf("FPS Ψ = %g, paper reports 0", psiMeans[MethodFPSOffline])
	}
	if psiMeans[MethodStatic] < psiMeans[MethodGA]-0.05 {
		t.Errorf("static Ψ %g should be ≥ GA Ψ %g", psiMeans[MethodStatic], psiMeans[MethodGA])
	}
	if psiMeans[MethodGA] < psiMeans[MethodGPIOCP]-0.05 {
		t.Errorf("GA Ψ %g should be ≥ GPIOCP Ψ %g", psiMeans[MethodGA], psiMeans[MethodGPIOCP])
	}
	// Figure 7: GA yields the best quality; FPS the worst.
	if upsMeans[MethodGA] < upsMeans[MethodStatic]-0.02 {
		t.Errorf("GA Υ %g should be ≥ static Υ %g", upsMeans[MethodGA], upsMeans[MethodStatic])
	}
	if upsMeans[MethodFPSOffline] > upsMeans[MethodGPIOCP] {
		t.Errorf("FPS Υ %g should be worst (GPIOCP %g)",
			upsMeans[MethodFPSOffline], upsMeans[MethodGPIOCP])
	}
	// Ψ declines with utilisation for the timing-aware methods.
	first, last := psi.Points[0], psi.Points[len(psi.Points)-1]
	for _, m := range []string{MethodStatic, MethodGA} {
		if first.Mean[m] < last.Mean[m] {
			t.Errorf("%s Ψ should decline: %g@0.3 vs %g@0.7", m, first.Mean[m], last.Mean[m])
		}
	}
}

func TestFig6And7RejectsMultiDevice(t *testing.T) {
	cfg := fastConfig()
	cfg.Gen.Devices = 2
	if _, _, err := Fig6And7(cfg); err == nil {
		t.Fatal("multi-device config accepted")
	}
}

func TestTable1RowsRender(t *testing.T) {
	rows := Table1()
	h, r := Table1Rows(rows)
	if len(h) != 6 || len(r) != 7 {
		t.Fatalf("table shape %dx%d", len(h), len(r))
	}
	if !strings.Contains(r[0][1], "/") {
		t.Errorf("cell should be model/paper: %q", r[0][1])
	}
}

func TestMotivationControllerIsExact(t *testing.T) {
	cfg := DefaultMotivation()
	cfg.Writes = 40
	res, err := Motivation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-loaded controller is always exact; the remote design pays
	// contention-dependent jitter under cross-traffic.
	if res.Controller.ExactFraction() != 1 {
		t.Errorf("controller exact = %g, want 1", res.Controller.ExactFraction())
	}
	if res.Controller.MaxDeviation != 0 {
		t.Errorf("controller max jitter = %d", res.Controller.MaxDeviation)
	}
	if res.Remote.ExactFraction() >= res.Controller.ExactFraction() {
		t.Errorf("remote exact %g should be below controller's 1.0", res.Remote.ExactFraction())
	}
	if res.Remote.MaxDeviation == 0 {
		t.Error("remote design showed no jitter under cross-traffic")
	}
	if res.BaseLatency <= 0 {
		t.Error("base latency missing")
	}
	h, rows := res.Rows()
	if len(h) != 5 || len(rows) != 2 {
		t.Errorf("rows shape %dx%d", len(h), len(rows))
	}
}

func TestMotivationRejectsZeroWrites(t *testing.T) {
	cfg := DefaultMotivation()
	cfg.Writes = 0
	if _, err := Motivation(cfg); err == nil {
		t.Fatal("zero writes accepted")
	}
}

func TestAblationVariantsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := fastConfig()
	cfg.Systems = 6
	res, err := Ablation(cfg, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(AblationVariants()) {
		t.Fatalf("variants = %d", len(res))
	}
	byName := map[string]AblationResult{}
	for _, r := range res {
		byName[r.Name] = r
		if r.Schedulable.Trials != 6 {
			t.Errorf("%s trials = %d", r.Name, r.Schedulable.Trials)
		}
	}
	// Demotion never schedules fewer systems than the literal algorithm.
	paper := byName["static (paper: LCC-D)"]
	demo := byName["static + demotion"]
	if demo.Schedulable.Successes < paper.Schedulable.Successes {
		t.Errorf("demotion %d < literal %d schedulable",
			demo.Schedulable.Successes, paper.Schedulable.Successes)
	}
	// Near-ideal placement should not reduce mean Υ.
	near := byName["static near-ideal placement"]
	if near.MeanUpsilon < paper.MeanUpsilon-0.02 {
		t.Errorf("near-ideal Υ %g < paper Υ %g", near.MeanUpsilon, paper.MeanUpsilon)
	}
	h, rows := AblationRows(res)
	if len(h) != 4 || len(rows) != len(res) {
		t.Errorf("rows shape %dx%d", len(h), len(rows))
	}
}

func TestDefaultAndPaperScaleConfigs(t *testing.T) {
	d, p := Default(), PaperScale()
	if d.Systems != 100 {
		t.Errorf("default systems = %d", d.Systems)
	}
	if p.Systems != 1000 || p.GA.Population != 300 || p.GA.Generations != 500 {
		t.Errorf("paper scale = %+v", p)
	}
	if d.curve() == nil {
		t.Error("default curve missing")
	}
}

func TestMultiDeviceScaling(t *testing.T) {
	cfg := fastConfig()
	cfg.Systems = 15
	points, err := MultiDevice(cfg, 0.8, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// More devices → less per-device contention → Ψ climbs.
	if points[2].MeanPsi < points[0].MeanPsi {
		t.Errorf("Ψ should improve with devices: %g@1 vs %g@4",
			points[0].MeanPsi, points[2].MeanPsi)
	}
	if points[2].MeanPsi < 0.75 {
		t.Errorf("4-device Ψ = %g, expected high at low per-device load", points[2].MeanPsi)
	}
	h, rows := MultiDeviceRows(points)
	if len(h) != 4 || len(rows) != 3 {
		t.Errorf("rows shape %dx%d", len(h), len(rows))
	}
	if _, err := MultiDevice(cfg, 0.5, []int{0}); err == nil {
		t.Error("zero devices accepted")
	}
}

// TestRunnersParallelismInvariant pins the engine's invariant at the
// experiment layer: every runner produces deep-equal results at
// parallelism 1, 2 and NumCPU for the same seed.
func TestRunnersParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := fastConfig()
	cfg.Systems = 5
	cfg.GA.Population = 12
	cfg.GA.Generations = 8

	at := func(par int) Config {
		c := cfg
		c.Parallelism = par
		return c
	}
	refFig5, err := Fig5(at(1))
	if err != nil {
		t.Fatal(err)
	}
	refPsi, refUps, err := Fig6And7(at(1))
	if err != nil {
		t.Fatal(err)
	}
	refAbl, err := Ablation(at(1), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	refMD, err := MultiDevice(at(1), 0.8, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, runtime.NumCPU()} {
		if got, err := Fig5(at(par)); err != nil || !reflect.DeepEqual(refFig5, got) {
			t.Errorf("Fig5 at parallelism %d differs from serial (err=%v)", par, err)
		}
		gotPsi, gotUps, err := Fig6And7(at(par))
		if err != nil || !reflect.DeepEqual(refPsi, gotPsi) || !reflect.DeepEqual(refUps, gotUps) {
			t.Errorf("Fig6And7 at parallelism %d differs from serial (err=%v)", par, err)
		}
		if got, err := Ablation(at(par), 0.6); err != nil || !reflect.DeepEqual(refAbl, got) {
			t.Errorf("Ablation at parallelism %d differs from serial (err=%v)", par, err)
		}
		if got, err := MultiDevice(at(par), 0.8, []int{1, 2, 4}); err != nil || !reflect.DeepEqual(refMD, got) {
			t.Errorf("MultiDevice at parallelism %d differs from serial (err=%v)", par, err)
		}
	}
}

// TestMotivationParallelismInvariant covers the remaining runner: the two
// fanned-out design simulations report identically at every parallelism.
func TestMotivationParallelismInvariant(t *testing.T) {
	cfg := DefaultMotivation()
	cfg.Writes = 30
	cfg.Parallelism = 1
	ref, err := Motivation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, runtime.NumCPU()} {
		cfg.Parallelism = par
		got, err := Motivation(cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("motivation at parallelism %d differs from serial", par)
		}
	}
}

// TestMotivationCountsOnlyIOWrites: the remote design measures the CPU's
// own write packets only. Cross-traffic flows are drawn at random, and on
// some seeds (5, 6, 8, 21, …) one runs from the CPU's node to the device
// too; counting those packets used to fail the run with more deliveries
// than writes. Every seed in 0–200 must now measure exactly the writes.
// The flows are drawn before the run length matters, so a short run of 20
// writes meets the same flows as the default 200.
func TestMotivationCountsOnlyIOWrites(t *testing.T) {
	cfg := DefaultMotivation()
	cfg.Writes = 20
	expected := motivationExpected(cfg)
	for seed := int64(0); seed <= 200; seed++ {
		cfg.Seed = seed
		rep, _, err := motivationRemote(cfg, expected)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Events) != cfg.Writes {
			t.Fatalf("seed %d: report covers %d writes, want %d", seed, len(rep.Events), cfg.Writes)
		}
	}
}
