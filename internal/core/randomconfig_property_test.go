package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// randomConfigs derives 2–5 structurally distinct configurations from a
// seed: the axes a sweep varies (window, queue, depth, width), all on the
// baseline predictor and memory hierarchy.
func randomConfigs(seed uint64) []uarch.Config {
	pick := func(shift uint, mod int) int { return int((seed >> shift) % uint64(mod)) }
	k := 2 + pick(58, 4)
	cfgs := make([]uarch.Config, k)
	for i := range cfgs {
		sh := uint(i * 7)
		c := uarch.Baseline()
		c.Name = "rand-" + string(rune('a'+i))
		c.FrontendDepth = 3 + pick(sh, 9)
		c.ROBSize = 32 + 16*pick(sh+2, 15)
		c.IQSize = 8 + 8*pick(sh+4, 8)
		if c.IQSize > c.ROBSize { // the validator rejects a queue wider than the window
			c.IQSize = c.ROBSize
		}
		w := 1 << pick(sh+6, 3) // 1, 2 or 4 wide
		c.FetchWidth, c.DispatchWidth, c.IssueWidth, c.CommitWidth = w, w, w, w
		cfgs[i] = c
	}
	return cfgs
}

// TestRandomConfigDecompositionIdentityProperty fuzzes random sets of
// configurations over random workloads through RunContext and checks, for
// every configuration:
//
//   - full runs: the paper's decomposition identity
//     Total = Frontend + BaseILP + FULatency + ShortDMiss + LongDMiss + Residual
//     holds for every misprediction, with the Frontend term equal to that
//     config's own pipeline depth;
//   - sampled runs: the extrapolation bookkeeping is self-consistent —
//     SampleStats with ordered intervals, a unit-mean CPI close to the
//     aggregate sampled CPI, and the dependence fallback reported on the
//     Result.
func TestRandomConfigDecompositionIdentityProperty(t *testing.T) {
	ctx := context.Background()
	f := func(seed uint64) bool {
		wc := propWorkload(seed)
		if err := wc.Validate(); err != nil {
			t.Logf("seed %d produced invalid config: %v", seed, err)
			return false
		}
		tr, err := trace.ReadAll(workload.MustNew(wc, 20_000))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		soa := trace.Pack(tr)
		cfgs := randomConfigs(seed)

		for i, cfg := range cfgs {
			res, err := uarch.RunContext(ctx, soa.Reader(), cfg, uarch.Options{
				RecordMispredicts: true, RecordLoadLevels: true,
			})
			if err != nil {
				t.Logf("seed %d config %d (full): %v", seed, i, err)
				return false
			}
			d, err := NewDecomposer(tr, res)
			if err != nil {
				t.Logf("seed %d config %d: %v", seed, i, err)
				return false
			}
			for j, b := range d.DecomposeAll() {
				sum := b.Frontend + b.BaseILP + b.FULatency + b.ShortDMiss + b.LongDMiss + b.Residual
				if math.Abs(sum-b.Total) > 1e-9 {
					t.Logf("seed %d config %d breakdown %d: components sum to %v, total %v", seed, i, j, sum, b.Total)
					return false
				}
				if b.Frontend != float64(cfg.FrontendDepth) {
					t.Logf("seed %d config %d breakdown %d: frontend %v != this config's depth %d",
						seed, i, j, b.Frontend, cfg.FrontendDepth)
					return false
				}
				if b.BaseILP < 0 || b.FULatency < 0 || b.ShortDMiss < 0 || b.LongDMiss < 0 {
					t.Logf("seed %d config %d breakdown %d: negative monotone component %+v", seed, i, j, b)
					return false
				}
			}
		}

		for i, cfg := range cfgs {
			res, err := uarch.RunContext(ctx, soa.Reader(), cfg, uarch.Options{
				SampleStartSkip: 2_000, SampleDetailed: 1_500, SampleSkip: 3_000,
			})
			if err != nil {
				t.Logf("seed %d config %d (sampled): %v", seed, i, err)
				return false
			}
			if !res.Sampled || res.Sample == nil {
				t.Logf("seed %d config %d: sampled result lacks SampleStats", seed, i)
				return false
			}
			if !strings.Contains(res.Fallback, "sampled run") {
				t.Logf("seed %d config %d: dependence fallback not reported: %q", seed, i, res.Fallback)
				return false
			}
			st := res.Sample
			if !(st.CPI.Lower <= st.CPI.Mean && st.CPI.Mean <= st.CPI.Upper) {
				t.Logf("seed %d config %d: CPI interval out of order: %+v", seed, i, st.CPI)
				return false
			}
			// Extrapolation consistency: the unit-mean estimator and the
			// aggregate detailed-phase CPI estimate the same quantity from
			// the same (few, equal-size) units.
			agg := res.CPI()
			if agg <= 0 || st.CPI.Mean <= 0 {
				t.Logf("seed %d config %d: non-positive sampled CPI (agg %v, mean %v)", seed, i, agg, st.CPI.Mean)
				return false
			}
			if r := st.CPI.Mean / agg; r < 0.75 || r > 1.25 {
				t.Logf("seed %d config %d: unit-mean CPI %v far from aggregate %v", seed, i, st.CPI.Mean, agg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
