// Package ilp analyzes the inherent instruction-level parallelism of a
// dynamic instruction stream through dependence-graph critical paths.
//
// Two of the paper's five misprediction-penalty contributors live here:
// the inherent ILP of the program (the unit-latency critical path of the
// instructions in the window when a mispredicted branch enters it) and the
// amplification of that path by functional-unit and short-miss latencies.
// The package also measures the program's ILP characteristic K(w) — the
// mean critical path over windows of w instructions — with the power-law
// fit K(w) ≈ (w/α)^(1/β) used by first-order superscalar models, which the
// analytic interval model in package core consumes.
package ilp

import (
	"fmt"
	"math"

	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
)

// LatencyFunc assigns an execution latency (in cycles) to record idx of the
// packed trace being analyzed, whose class is c. idx is the absolute trace
// index, letting callers key latencies off side tables (e.g. observed
// per-load cache levels). Fractional values are allowed so expected-value
// latencies (e.g. an average short-miss uplift on loads) can be modeled.
type LatencyFunc func(idx int, c isa.Class) float64

// UnitLatency treats every instruction as single-cycle: the latency function
// of the paper's "inherent ILP" contributor.
func UnitLatency(int, isa.Class) float64 { return 1 }

// Scratch is the per-window depth buffer the window kernels below reuse: a
// kernel call allocates only when its window outgrows every earlier one, so
// make(Scratch, n) sized to the largest window makes every call
// allocation-free. A Scratch serves one goroutine at a time.
//
// The kernels analyze the window [lo, hi) of a packed trace through its
// precomputed producer indices (trace.SoA's Dep1, Dep2 and DepMem): register
// read-after-write dependences and store→load forwarding on exact 8-byte
// words. A producer older than lo lies outside the window and does not delay
// its consumer.
type Scratch []float64

// window returns the first n entries of the buffer, growing it if needed.
func (s *Scratch) window(n int) []float64 {
	if cap(*s) < n {
		*s = make(Scratch, n)
	}
	return (*s)[:n]
}

// CriticalPathTo returns the length of the longest dependence chain ending
// at record hi-1 — the resolution time of a branch sitting at the end of the
// window [lo, hi). An empty window yields 0.
func (s *Scratch) CriticalPathTo(soa *trace.SoA, lo, hi int, lat LatencyFunc) float64 {
	last, _ := s.pathDepths(soa, lo, hi, lat)
	return last
}

// pathDepths computes, for each record of [lo, hi), the earliest completion
// time of its dependence chain (its "depth"), and returns the depth of the
// last record and the maximum depth — the window's critical path.
func (s *Scratch) pathDepths(soa *trace.SoA, lo, hi int, lat LatencyFunc) (last, maxDepth float64) {
	if hi <= lo {
		return 0, 0
	}
	depth := s.window(hi - lo)
	for i := lo; i < hi; i++ {
		d := ready(soa, i, lo, depth, 0) + lat(i, soa.Class(i))
		depth[i-lo] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	return depth[hi-1-lo], maxDepth
}

// ready returns the later of floor and the completion times, in done, of
// record i's producers inside the window that starts at lo.
func ready(soa *trace.SoA, i, lo int, done []float64, floor float64) float64 {
	for _, p := range [...]int32{soa.Dep1[i], soa.Dep2[i], soa.DepMem[i]} {
		if p := int(p); p >= lo && done[p-lo] > floor {
			floor = done[p-lo]
		}
	}
	return floor
}

// Characteristic is a program's ILP profile: the mean unit-latency critical
// path K(w) over windows of w consecutive instructions, together with the
// power-law fit K(w) ≈ (w/Alpha)^(1/Beta). Beta ≈ 2 corresponds to the
// square-root ILP scaling of classic first-order models; larger Beta means
// more parallelism.
type Characteristic struct {
	Windows []int     // window sizes profiled, ascending
	K       []float64 // mean critical path per window size
	Alpha   float64
	Beta    float64
}

// IPC returns the steady-state ILP limit w/K(w) for window size w using the
// fitted model.
func (c Characteristic) IPC(w int) float64 {
	k := c.Eval(w)
	if k <= 0 {
		return 0
	}
	return float64(w) / k
}

// Eval returns the fitted K(w).
func (c Characteristic) Eval(w int) float64 {
	if w <= 0 {
		return 0
	}
	if c.Alpha <= 0 || c.Beta <= 0 {
		return float64(w) // degenerate fit: fully serial
	}
	return math.Pow(float64(w)/c.Alpha, 1/c.Beta)
}

// EvalInterp returns K(w) by piecewise-linear interpolation of the measured
// points, extrapolating with the power-law fit outside the profiled range.
func (c Characteristic) EvalInterp(w int) float64 {
	if len(c.Windows) == 0 {
		return c.Eval(w)
	}
	if w <= c.Windows[0] || w > c.Windows[len(c.Windows)-1] {
		if w == c.Windows[0] {
			return c.K[0]
		}
		return c.Eval(w)
	}
	for i := 1; i < len(c.Windows); i++ {
		if w <= c.Windows[i] {
			w0, w1 := float64(c.Windows[i-1]), float64(c.Windows[i])
			f := (float64(w) - w0) / (w1 - w0)
			return c.K[i-1]*(1-f) + c.K[i]*f
		}
	}
	return c.K[len(c.K)-1]
}

// Profile measures the ILP characteristic of soa under lat. It computes
// critical paths over non-overlapping windows of each size in windows (which
// must be positive and ascending) across the first maxInsts records (0 = the
// whole trace). The windows of each size are chopped inside consecutive
// blocks of the largest size, so a size that does not divide the largest
// never straddles a block boundary.
func Profile(soa *trace.SoA, windows []int, lat LatencyFunc, maxInsts int) (Characteristic, error) {
	if err := checkWindows(windows); err != nil {
		return Characteristic{}, err
	}
	n := profiled(soa, maxInsts)
	largest := windows[len(windows)-1]
	scratch := make(Scratch, largest)
	sums := make([]float64, len(windows))
	counts := make([]int, len(windows))
	for block := 0; block < n; block += largest {
		end := min(block+largest, n)
		for i, w := range windows {
			for lo := block; lo+w <= end; lo += w {
				_, path := scratch.pathDepths(soa, lo, lo+w, lat)
				sums[i] += path
				counts[i]++
			}
		}
	}
	return characteristic(windows, sums, counts), nil
}

// checkWindows validates a window-size ladder: non-empty, positive and
// strictly ascending.
func checkWindows(windows []int) error {
	if len(windows) == 0 {
		return fmt.Errorf("ilp: no window sizes given")
	}
	for i, w := range windows {
		if w <= 0 || (i > 0 && w <= windows[i-1]) {
			return fmt.Errorf("ilp: window sizes must be positive and ascending")
		}
	}
	return nil
}

// profiled returns how many leading records of soa a maxInsts bound (0 =
// all) admits.
func profiled(soa *trace.SoA, maxInsts int) int {
	if n := soa.Len(); maxInsts <= 0 || maxInsts > n {
		return n
	}
	return maxInsts
}

// characteristic averages per-window sums into K and fits the power law.
func characteristic(windows []int, sums []float64, counts []int) Characteristic {
	c := Characteristic{Windows: append([]int(nil), windows...), K: make([]float64, len(windows))}
	for i := range windows {
		if counts[i] > 0 {
			c.K[i] = sums[i] / float64(counts[i])
		}
	}
	c.fit()
	return c
}

// fit performs a least-squares power-law fit of the measured (w, K) points
// in log space: log K = (1/β) log w − (1/β) log α.
func (c *Characteristic) fit() {
	var n float64
	var sx, sy, sxx, sxy float64
	for i, w := range c.Windows {
		if c.K[i] <= 0 {
			continue
		}
		x, y := math.Log(float64(w)), math.Log(c.K[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 {
		return
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	if slope <= 0 {
		return
	}
	c.Beta = 1 / slope
	c.Alpha = math.Exp(-intercept / slope)
}

// DefaultWindows is the window-size ladder used by the experiments: powers
// of two through a 256-entry window.
func DefaultWindows() []int {
	return []int{2, 4, 8, 16, 32, 64, 128, 256}
}

// ScheduledResolution estimates the resolution time of record hi-1 of soa (a
// branch) on a machine dispatching width instructions per cycle, with
// unlimited functional units, when the window [lo, hi) leads up to it. Record
// i dispatches at cycle (i+1-n)/width relative to the branch (which
// dispatches at cycle 0; n = hi-lo and i counts from lo), issues no earlier
// than one cycle after dispatch and when its producers complete, and
// completes lat cycles later. Unlike a raw critical path, this credits older
// window contents with the execution time they already had before the
// branch arrived — which is why measured branch resolution saturates well
// below the whole-window critical path.
func (s *Scratch) ScheduledResolution(soa *trace.SoA, lo, hi int, lat LatencyFunc, width int) float64 {
	n := hi - lo
	if n <= 0 {
		return 0
	}
	if width <= 0 {
		width = 1
	}
	done := s.window(n)
	for i := lo; i < hi; i++ {
		dispatch := float64(i-lo+1-n) / float64(width)
		done[i-lo] = ready(soa, i, lo, done, dispatch+1) + lat(i, soa.Class(i))
	}
	res := done[n-1]
	if res < 0 {
		return 0
	}
	return res
}

// ProfileResolution measures the branch-resolution characteristic: for each
// window size w, the mean ScheduledResolution of a conditional branch over
// the w instructions leading up to and including it, on a width-wide
// machine, across the first maxInsts records of soa (0 = the whole trace).
// This is the drain curve a mispredicted branch actually sees — it
// saturates once w exceeds the typical depth of the chains feeding branches,
// unlike the whole-window characteristic which keeps growing. Branches are
// sampled (every sample-th) to bound cost; sample <= 0 means every branch.
// A branch with fewer than w records before it contributes no size-w window.
func ProfileResolution(soa *trace.SoA, windows []int, lat LatencyFunc, width, maxInsts, sample int) (Characteristic, error) {
	if err := checkWindows(windows); err != nil {
		return Characteristic{}, err
	}
	if sample <= 0 {
		sample = 1
	}
	scratch := make(Scratch, windows[len(windows)-1])
	sums := make([]float64, len(windows))
	counts := make([]int, len(windows))
	branchSeen := 0
	for t, n := 0, profiled(soa, maxInsts); t < n; t++ {
		if soa.Class(t) != isa.Branch {
			continue
		}
		branchSeen++
		if branchSeen%sample != 0 {
			continue
		}
		for i, w := range windows {
			if lo := t + 1 - w; lo >= 0 {
				sums[i] += scratch.ScheduledResolution(soa, lo, t+1, lat, width)
				counts[i]++
			}
		}
	}
	return characteristic(windows, sums, counts), nil
}
