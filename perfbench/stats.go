package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// PaperSystems is the systems count per utilisation point of the
// paper-scale grids (15 Fig. 5 points and 5 Fig. 6/7 points).
const PaperSystems = 1000

// PaperCPUHours projects a measured cost to the paper-scale grids: cpu
// CPU-seconds spent on systemsPerPoint systems at every utilisation
// point, scaled to PaperSystems systems per point, in hours.
func PaperCPUHours(cpuSeconds float64, systemsPerPoint int) float64 {
	return cpuSeconds * (PaperSystems / float64(systemsPerPoint)) / 3600
}

// Usage is a point-in-time reading of the process's resource counters.
type Usage struct {
	Wall  time.Time
	CPU   time.Duration // user + system CPU time of the whole process
	Alloc uint64        // runtime.MemStats.TotalAlloc: heap bytes allocated so far
}

// ReadUsage reads the process's wall clock, CPU time and allocation
// counter. It stops the world briefly (runtime.ReadMemStats), so call it
// between measured phases, not inside them.
func ReadUsage() Usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Usage{
		Wall:  time.Now(),
		CPU:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		Alloc: ms.TotalAlloc,
	}
}

// Delta is what happened between two Usage readings.
type Delta struct {
	Wall  time.Duration
	CPU   time.Duration
	Alloc uint64
}

// Since returns the resources used from u0 up to u.
func (u Usage) Since(u0 Usage) Delta {
	return Delta{Wall: u.Wall.Sub(u0.Wall), CPU: u.CPU - u0.CPU, Alloc: u.Alloc - u0.Alloc}
}

// AllocMB returns the allocated bytes in MB (10^6 bytes).
func (d Delta) AllocMB() float64 { return float64(d.Alloc) / 1e6 }

// tailLevels are the percentiles TailPercentile chooses from, highest
// first, in tenths of a percent (exact integer arithmetic).
var tailLevels = []int{999, 990, 950, 900, 750}

// TailPercentile returns the highest percentile in {99.9, 99, 95, 90,
// 75} that has at least ten of n samples beyond it, or false when n is
// too small for any of them.
func TailPercentile(n int) (float64, bool) {
	for _, p := range tailLevels {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10, true
		}
	}
	return 0, false
}

// Percentile returns the p-th percentile (0..100) of the values by the
// nearest-rank rule; NaN for no values. It does not modify vs.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Median is the 50th percentile, averaging the middle pair for an even
// count; 0 for no values.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Summary is a timing reported by the percentile rule: the median, the
// highest percentile with at least ten samples beyond it (Tail at level
// TailP; TailP is 0 and Tail the maximum when there are too few
// samples), and the sample count.
type Summary struct {
	N     int
	P50   float64
	TailP float64
	Tail  float64
}

// Summarise applies the percentile rule to the values.
func Summarise(vs []float64) Summary {
	s := Summary{N: len(vs), P50: Median(vs)}
	if p, ok := TailPercentile(len(vs)); ok {
		s.TailP, s.Tail = p, Percentile(vs, p)
	} else {
		s.Tail = Percentile(vs, 100)
	}
	if len(vs) == 0 {
		s.Tail = 0
	}
	return s
}
