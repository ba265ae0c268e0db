package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/exec"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/quality"
	"repro/internal/sched"
	"repro/internal/sched/fps"
	"repro/internal/sched/ga"
	"repro/internal/sched/gpiocp"
	"repro/internal/sched/staticsched"
	"repro/internal/shard"
	"repro/internal/taskmodel"
	"repro/internal/textplot"
)

// Mirrors of the cell payloads the checks read. Decoding is strict, so a
// payload layout change fails the check instead of reading zeros.
type (
	qPayload struct {
		Psi float64 `json:"psi"`
		Ups float64 `json:"upsilon"`
		OK  bool    `json:"ok"`
	}
	fig5Payload struct {
		Offline bool `json:"offline"`
		Online  bool `json:"online"`
		GPIOCP  bool `json:"gpiocp"`
		Static  bool `json:"static"`
		GA      bool `json:"ga"`
	}
	figqPayload struct {
		Offline qPayload `json:"offline"`
		CP      qPayload `json:"gpiocp"`
		Static  qPayload `json:"static"`
		GA      qPayload `json:"ga"`
	}
	tailqPayload struct {
		OK     bool    `json:"ok"`
		Jobs   int     `json:"jobs"`
		Exact  int     `json:"exact"`
		Ge90   int     `json:"ge90"`
		Ge50   int     `json:"ge50"`
		SumUps float64 `json:"sum_upsilon"`
		MinUps float64 `json:"min_upsilon"`
	}
)

// decodePayload strictly decodes a cell payload into v.
func decodePayload(data []byte, v any) error {
	d := json.NewDecoder(bytes.NewReader(data))
	d.DisallowUnknownFields()
	return d.Decode(v)
}

// payloadFor returns an empty mirror for an experiment's payloads, or
// nil for experiments the benchmark does not check field by field.
func payloadFor(experimentName string) any {
	switch experimentName {
	case experiment.ExpFig5:
		return new(fig5Payload)
	case experiment.ExpFig6, experiment.ExpFig7:
		return new(figqPayload)
	case experiment.ExpTailQ:
		return new(tailqPayload)
	case experiment.ExpMultiDevice:
		return new(qPayload)
	}
	return nil
}

// decodeCells checks that every cell of every run decodes; it returns
// the number of cells that do not.
func decodeCells(f *shard.File) (bad int, note string) {
	for _, r := range f.Runs {
		for _, c := range r.Cells {
			var err error
			if v := payloadFor(r.Experiment); v != nil {
				err = decodePayload(c.Data, v)
			} else if !json.Valid(c.Data) {
				err = errors.New("invalid JSON")
			}
			if err != nil {
				bad++
				note = fmt.Sprintf("%s cell (%d,%d) does not decode: %v", r.Experiment, c.Point, c.System, err)
			}
		}
	}
	return bad, note
}

// digestOf returns the SHA-256 of the files' run names and cell
// payloads, in file order.
func digestOf(files ...*shard.File) string {
	h := sha256.New()
	for _, f := range files {
		for _, r := range f.Runs {
			fmt.Fprintf(h, "%s\n", r.Experiment)
			for _, c := range r.Cells {
				fmt.Fprintf(h, "%d %d %d %s\n", c.Point, c.System, c.Seed, c.Data)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeFile encodes f in the binary codec inside an encode span.
func (b *Bench) encodeFile(parent int, f *shard.File) ([]byte, error) {
	var data []byte
	var err error
	b.Span(parent, spanEncode, func(int) { data, err = f.EncodeAs(shard.EncodingBinary) })
	if err == nil {
		n := f.CellCount()
		b.Count(func(c *Counters) { c.EncodedCells += n; c.EncodedBytes += len(data) })
	}
	return data, err
}

// decodeFile decodes a shard file inside a decode span.
func (b *Bench) decodeFile(parent int, data []byte) (*shard.File, error) {
	var f *shard.File
	var err error
	b.Span(parent, spanDecode, func(int) { f, err = shard.Decode(data) })
	if err == nil {
		n := f.CellCount()
		b.Count(func(c *Counters) { c.DecodedCells += n })
	}
	return f, err
}

// render aggregates every run of a complete file and draws it the way
// the CLI does: header, chart for plottable results, table, footer.
func (b *Bench) render(parent int, f *shard.File) (string, error) {
	var p experiment.ShardParams
	if err := json.Unmarshal(f.Params, &p); err != nil {
		return "", fmt.Errorf("recorded params: %w", err)
	}
	rc := p.Context(1)
	var out strings.Builder
	for _, r := range f.Runs {
		e, ok := experiment.Lookup(r.Experiment)
		if !ok {
			return "", fmt.Errorf("unknown experiment %q", r.Experiment)
		}
		var res experiment.Result
		var err error
		b.Span(parent, spanAggregate, func(int) { res, err = experiment.FromCells(r.Experiment, rc, r.Cells) })
		if err != nil {
			return "", err
		}
		b.Span(parent, spanRender, func(int) { drawResult(&out, e.Header(rc), res) })
	}
	return out.String(), nil
}

// drawResult renders one aggregated result with internal/textplot.
func drawResult(out *strings.Builder, header string, res experiment.Result) {
	out.WriteString(header)
	if p, ok := res.(experiment.Plottable); ok {
		x, cs := p.Series()
		series := make([]textplot.Series, len(cs))
		for i, c := range cs {
			series[i] = textplot.Series{Name: c.Name, Values: c.Values}
		}
		out.WriteString(textplot.Chart(p.PlotTitle(), x, series, 0, 1, 12))
		out.WriteByte('\n')
	}
	h, rows := res.Rows()
	out.WriteString(textplot.Table(h, rows))
	out.WriteByte('\n')
	if f, ok := res.(experiment.Footnoted); ok {
		out.WriteString(f.Footer())
	}
}

// checker re-executes cells from outside the program: it regenerates
// each cell's system from its recorded seed, runs every scheduler the
// experiment runs through its public API inside spans, and compares the
// verdicts and scores with the cell's payload. GA fronts cannot be
// compared (the GA's seed is private to the experiment) but every front
// solution must form a valid schedule.
type checker struct {
	b   *Bench
	cfg experiment.Config
	// multidevice axis
	mdU      float64
	mdCounts []int
}

func newChecker(b *Bench, p experiment.ShardParams) *checker {
	p = p.Normalised()
	u, counts := p.ResolvedMultiDevice()
	return &checker{b: b, cfg: p.Config(), mdU: u, mdCounts: counts}
}

func (k *checker) curve() quality.Curve {
	if k.cfg.Curve == nil {
		return quality.Linear{}
	}
	return k.cfg.Curve
}

// checkable reports whether the checker re-executes the experiment's
// cells.
func checkable(experimentName string) bool {
	switch experimentName {
	case experiment.ExpFig5, experiment.ExpFig6, experiment.ExpTailQ, experiment.ExpMultiDevice:
		return true
	}
	return false
}

// Cell re-executes one cell of the named experiment under parent and
// returns a non-nil error on any mismatch or invalid schedule.
func (k *checker) Cell(parent int, experimentName string, c shard.Cell) error {
	id := k.b.Tr.Begin(parent, spanCell)
	defer k.b.Tr.End(id)
	switch experimentName {
	case experiment.ExpFig5:
		return k.fig5(id, c)
	case experiment.ExpFig6:
		return k.figq(id, c)
	case experiment.ExpTailQ:
		return k.tailq(id, c)
	case experiment.ExpMultiDevice:
		return k.multiDevice(id, c)
	}
	return fmt.Errorf("no check for experiment %q", experimentName)
}

// system regenerates a cell's task set from its recorded seed.
func (k *checker) system(parent int, g gen.Config, seed int64, u float64) (*taskmodel.TaskSet, error) {
	var ts *taskmodel.TaskSet
	var err error
	k.b.Span(parent, spanGen, func(int) { ts, err = g.System(rand.New(rand.NewSource(seed)), u) })
	return ts, err
}

// verdict maps a scheduler error to feasible/infeasible, failing on any
// other error.
func verdict(err error) (bool, error) {
	if err == nil {
		return true, nil
	}
	if errors.Is(err, sched.ErrInfeasible) {
		return false, nil
	}
	return false, err
}

// validate checks every device schedule inside validate spans.
func (k *checker) validate(parent int, ds sched.DeviceSchedules) error {
	for dev, s := range ds {
		var err error
		k.b.Span(parent, spanValidate, func(int) { err = s.Validate() })
		if err != nil {
			return fmt.Errorf("device %v schedule invalid: %w", dev, err)
		}
	}
	return nil
}

// solveGA runs the GA on every device partition and validates every
// front solution through sched.New + Validate.
func (k *checker) solveGA(parent int, ts *taskmodel.TaskSet, seed int64) error {
	opts := k.cfg.GA
	opts.Seed = seed
	opts.Parallelism = 1
	opts.Curve = k.curve()
	parts := ts.JobsByDevice()
	for _, dev := range ts.Devices() {
		jobs := parts[dev]
		var res *ga.Result
		var err error
		k.b.Span(parent, spanGA, func(int) { res, err = ga.Solve(jobs, opts) })
		if _, verr := verdict(err); verr != nil {
			return fmt.Errorf("ga: %w", verr)
		}
		k.b.Count(func(c *Counters) {
			c.GASolves++
			c.GAEvals += opts.Population * opts.Generations
			if err == nil {
				c.GAFront += len(res.Front)
			}
		})
		if err != nil {
			continue
		}
		for i, sol := range res.Front {
			var err error
			k.b.Span(parent, spanValidate, func(int) {
				var s *sched.Schedule
				if s, err = sched.New(jobs, sol.Starts); err == nil {
					err = s.Validate()
				}
			})
			if err != nil {
				return fmt.Errorf("ga front solution %d invalid: %w", i, err)
			}
		}
	}
	return nil
}

func (k *checker) countStatic(ts *taskmodel.TaskSet, feasible bool) {
	jobs := len(ts.Jobs())
	k.b.Count(func(c *Counters) {
		c.StaticSchedules++
		c.StaticJobs += jobs
		if feasible {
			c.StaticFeasible++
		}
	})
}

func (k *checker) fig5(parent int, c shard.Cell) error {
	var want fig5Payload
	if err := decodePayload(c.Data, &want); err != nil {
		return err
	}
	ts, err := k.system(parent, k.cfg.Gen, c.Seed, experiment.Fig5Utils()[c.Point])
	if err != nil {
		return err
	}
	var got fig5Payload
	var errs [3]error
	var ds [3]sched.DeviceSchedules
	k.b.Span(parent, spanFPSOffline, func(int) { ds[0], errs[0] = sched.ScheduleAll(ts, fps.Offline{}) })
	k.b.Span(parent, spanFPSOnline, func(int) {
		byDev := make(map[taskmodel.DeviceID][]taskmodel.Task)
		for _, t := range ts.Tasks {
			byDev[t.Device] = append(byDev[t.Device], t)
		}
		got.Online = true
		for _, tasks := range byDev {
			got.Online = got.Online && fps.Analyze(tasks).Schedulable
		}
	})
	k.b.Span(parent, spanGPIOCP, func(int) { ds[1], errs[1] = sched.ScheduleAll(ts, gpiocp.Scheduler{}) })
	k.b.Span(parent, spanStatic, func(int) { ds[2], errs[2] = sched.ScheduleAll(ts, staticsched.New(staticsched.Options{})) })
	k.b.Count(func(c *Counters) { c.BaselineSystems++ })
	for i, dst := range []*bool{&got.Offline, &got.GPIOCP, &got.Static} {
		if *dst, err = verdict(errs[i]); err != nil {
			return err
		}
		if *dst {
			if err := k.validate(parent, ds[i]); err != nil {
				return err
			}
		}
	}
	k.countStatic(ts, got.Static)
	if err := k.solveGA(parent, ts, c.Seed); err != nil {
		return err
	}
	got.GA = want.GA // private GA seed: verdict not reproducible from outside
	if got != want {
		return fmt.Errorf("verdicts %+v, payload says %+v", got, want)
	}
	return nil
}

// measure scores one single-device schedule like the fig6/7 payloads
// do: any scheduling error is an unschedulable outcome.
func (k *checker) measure(parent int, s *sched.Schedule, err error) (qPayload, error) {
	if err != nil {
		return qPayload{}, nil
	}
	var q qPayload
	k.b.Span(parent, spanScore, func(int) { q = qPayload{Psi: s.Psi(), Ups: s.Upsilon(k.curve()), OK: true} })
	n := len(s.Jobs())
	k.b.Count(func(c *Counters) { c.ScoredJobs += n })
	var vErr error
	k.b.Span(parent, spanValidate, func(int) { vErr = s.Validate() })
	return q, vErr
}

func (k *checker) figq(parent int, c shard.Cell) error {
	var want figqPayload
	if err := decodePayload(c.Data, &want); err != nil {
		return err
	}
	ts, err := k.system(parent, k.cfg.Gen, c.Seed, experiment.FigQUtils()[c.Point])
	if err != nil {
		return err
	}
	jobs := ts.Jobs()
	var got figqPayload
	var s *sched.Schedule
	k.b.Span(parent, spanFPSOffline, func(int) { s, err = (fps.Offline{}).Schedule(jobs) })
	if got.Offline, err = k.measure(parent, s, err); err != nil {
		return err
	}
	k.b.Span(parent, spanGPIOCP, func(int) { s, err = (gpiocp.Scheduler{}).Schedule(jobs) })
	if got.CP, err = k.measure(parent, s, err); err != nil {
		return err
	}
	k.b.Count(func(c *Counters) { c.BaselineSystems++ })
	k.b.Span(parent, spanStatic, func(int) { s, err = staticsched.New(staticsched.Options{}).Schedule(jobs) })
	k.countStatic(ts, err == nil)
	if got.Static, err = k.measure(parent, s, err); err != nil {
		return err
	}
	if err := k.solveGA(parent, ts, c.Seed); err != nil {
		return err
	}
	got.GA = want.GA // private GA seed: scores not reproducible from outside
	if got != want {
		return fmt.Errorf("scores %+v, payload says %+v", got, want)
	}
	return nil
}

func (k *checker) tailq(parent int, c shard.Cell) error {
	var want tailqPayload
	if err := decodePayload(c.Data, &want); err != nil {
		return err
	}
	ts, err := k.system(parent, k.cfg.Gen, c.Seed, experiment.Fig5Utils()[c.Point])
	if err != nil {
		return err
	}
	var ds sched.DeviceSchedules
	k.b.Span(parent, spanStatic, func(int) { ds, err = sched.ScheduleAll(ts, staticsched.New(staticsched.Options{})) })
	ok, err := verdict(err)
	if err != nil {
		return err
	}
	k.countStatic(ts, ok)
	got := tailqPayload{}
	if ok {
		got = k.census(parent, ts, ds)
		if err := k.validate(parent, ds); err != nil {
			return err
		}
	}
	if got != want {
		return fmt.Errorf("census %+v, payload says %+v", got, want)
	}
	return nil
}

// census takes the tailq per-job quality census in the experiment's
// fixed order (devices, then each schedule's jobs), so the float sum
// must match the payload bit for bit.
func (k *checker) census(parent int, ts *taskmodel.TaskSet, ds sched.DeviceSchedules) tailqPayload {
	o := tailqPayload{OK: true, MinUps: 1}
	curve := k.curve()
	k.b.Span(parent, spanScore, func(int) {
		for _, dev := range ts.Devices() {
			s := ds[dev]
			starts := s.StartTimes()
			for _, j := range s.Jobs() {
				kappa := starts[j.ID]
				ideal := curve.Value(&j, j.Ideal)
				if ideal <= 0 {
					continue
				}
				ups := curve.Value(&j, kappa) / ideal
				o.Jobs++
				o.SumUps += ups
				o.MinUps = min(o.MinUps, ups)
				if quality.Exact(&j, kappa) {
					o.Exact++
				}
				if ups >= 0.9 {
					o.Ge90++
				}
				if ups >= 0.5 {
					o.Ge50++
				}
			}
		}
	})
	n := o.Jobs
	k.b.Count(func(c *Counters) { c.ScoredJobs += n })
	return o
}

func (k *checker) multiDevice(parent int, c shard.Cell) error {
	var want qPayload
	if err := decodePayload(c.Data, &want); err != nil {
		return err
	}
	g := k.cfg.Gen
	g.Devices = k.mdCounts[c.Point]
	ts, err := k.system(parent, g, c.Seed, k.mdU)
	if err != nil {
		return err
	}
	var ds sched.DeviceSchedules
	k.b.Span(parent, spanStatic, func(int) { ds, err = sched.ScheduleAll(ts, staticsched.New(staticsched.Options{})) })
	// The experiment counts any scheduling error as unschedulable.
	ok := err == nil
	k.countStatic(ts, ok)
	var got qPayload
	if ok {
		k.b.Span(parent, spanScore, func(int) {
			psi, ups := ds.Metrics(k.curve())
			got = qPayload{Psi: psi, Ups: ups, OK: true}
		})
		n := len(ts.Jobs())
		k.b.Count(func(c *Counters) { c.ScoredJobs += n })
		if err := k.validate(parent, ds); err != nil {
			return err
		}
	}
	if got != want {
		return fmt.Errorf("scores %+v, payload says %+v", got, want)
	}
	return nil
}

// checkFile re-executes every checkable cell of f on two goroutines
// under parent and returns the outcome.
func (k *checker) checkFile(parent int, f *shard.File) Outcome {
	type job struct {
		exp  string
		cell shard.Cell
	}
	var jobs []job
	seen := map[string]bool{}
	for _, r := range f.Runs {
		e, ok := experiment.Lookup(r.Experiment)
		if !ok || !checkable(r.Experiment) || seen[e.CellKey()] {
			continue
		}
		seen[e.CellKey()] = true
		for _, c := range r.Cells {
			jobs = append(jobs, job{r.Experiment, c})
		}
	}
	errs := make([]error, len(jobs))
	// Every task records its own error and returns nil, so all run.
	_ = exec.New(2).Each(context.Background(), len(jobs), func(_ context.Context, i int) error {
		errs[i] = k.Cell(parent, jobs[i].exp, jobs[i].cell)
		return nil
	})
	var o Outcome
	o.Attempted = len(jobs)
	for i, err := range errs {
		if err != nil {
			c := jobs[i].cell
			o.fail(1, "check %s cell (%d,%d) seed %d: %v", jobs[i].exp, c.Point, c.System, c.Seed, err)
		}
	}
	return o
}
