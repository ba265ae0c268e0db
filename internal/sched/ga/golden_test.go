package ga

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/quality"
	"repro/internal/sched"
	"repro/internal/taskmodel"
)

// goldenFrontDigest hashes everything Solve returns for the given paper
// systems: per system the front size, then per solution Ψ and Υ (exact
// bits) and the start instant of every job in job order. An infeasible
// system contributes a marker instead of a front.
func goldenFrontDigest(t *testing.T, seeds []int64, utils []float64, opts Options) string {
	t.Helper()
	cfg := gen.PaperConfig()
	h := sha256.New()
	for _, seed := range seeds {
		for _, u := range utils {
			ts, err := cfg.System(rand.New(rand.NewSource(seed)), u)
			if err != nil {
				t.Fatal(err)
			}
			jobs := ts.Jobs()
			o := opts
			o.Seed = seed
			res, err := Solve(jobs, o)
			if err != nil {
				if !errors.Is(err, sched.ErrInfeasible) {
					t.Fatalf("seed %d u=%g: %v", seed, u, err)
				}
				writeU64(h, math.MaxUint64)
				continue
			}
			writeFront(h, jobs, res.Front)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeFront(h hash.Hash, jobs []taskmodel.Job, front []Solution) {
	writeU64(h, uint64(len(front)))
	for _, sol := range front {
		writeU64(h, math.Float64bits(sol.Psi))
		writeU64(h, math.Float64bits(sol.Upsilon))
		for i := range jobs {
			writeU64(h, uint64(sol.Starts[jobs[i].ID]))
		}
	}
}

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// TestSolveGolden pins the exact fronts Solve evolves on paper systems
// across the option and curve space. Any change to the operators, the
// random draw sequence, the repair or the scoring arithmetic shows up
// here; a change that is meant to alter results must say so and re-pin.
func TestSolveGolden(t *testing.T) {
	seeds := []int64{1, 2, 3}
	utils := []float64{0.3, 0.5, 0.7, 0.9}
	base := testOpts(0)
	base.Parallelism = 1
	cases := []struct {
		name        string
		snap, ideal bool
		curve       quality.Curve
		seeds       []int64
		want        string
	}{
		{"linear/snap+seed", true, true, nil, seeds, "7cb83725e73c2b725c4bade9c5a6b13c528a72e1d1985451e97c4f552d47e1dc"},
		{"linear/snap", true, false, nil, seeds, "bbdadab9b0e714679b1cf3bea04719b4e70de2cf45fdf57495e2d7065e62c726"},
		{"linear/seed", false, true, nil, seeds, "09beda3201e72dab9083ee3f1434f052e11b39848b1332a203788b1133d0621e"},
		{"linear/plain", false, false, nil, seeds, "7fe71fe4c0525881007fb9ed734695e0612d30f8119db2317a42f7eb1e535aff"},
		{"penalised", true, true, quality.Penalised{Base: quality.Linear{}, Penalty: -1000}, seeds[:2], "f89f976447606c8da60934f92b52ab47f46e17c71be2d52e4af1be912a0127ba"},
		{"exponential", true, true, quality.Exponential{Sharpness: 2}, seeds[:2], "8ec257a08d29f00a423aad775995a617e563a11a0fcee7f0d01b67a290b6384c"},
	}
	for _, c := range cases {
		opts := base
		opts.SnapToIdeal, opts.SeedIdeal, opts.Curve = c.snap, c.ideal, c.curve
		if got := goldenFrontDigest(t, c.seeds, utils, opts); got != c.want {
			t.Errorf("%s: front digest %s, want %s", c.name, got, c.want)
		}
	}
}
