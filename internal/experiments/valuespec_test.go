package experiments

import (
	"bytes"
	"path/filepath"
	"testing"

	"intervalsim/internal/core"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// TestGoldenC1Table pins the value-prediction potential study: predictor
// sizings, hit/misspec rates, CPI, and the budget curve are all
// deterministic — drift in the value predictors, the eligibility rule, the
// flush handling, or the synthetic value stream changes the bytes.
func TestGoldenC1Table(t *testing.T) {
	var buf bytes.Buffer
	if err := C1(&buf, goldenParams()); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden_c1.txt"), buf.String())
}

// TestGoldenC2Table pins the fetch-rate sweep and its per-contributor
// penalty decomposition.
func TestGoldenC2Table(t *testing.T) {
	var buf bytes.Buffer
	if err := C2(&buf, goldenParams()); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden_c2.txt"), buf.String())
}

// TestC1MonotoneCPI is C1's acceptance property: for the tag-free table
// kinds (last-value, stride), growing the storage budget only removes
// aliasing, so CPI must be non-increasing along the budget ladder on both
// study workloads, and the largest sizing must beat the no-value-prediction
// baseline. FCM is exempt — its context hashes can alias into
// confident-wrong predictions at small sizes (see the C1b comment).
func TestC1MonotoneCPI(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment skipped in -short mode")
	}
	p := goldenParams()
	budgets := []int64{1 << 10 * 8, 4 << 10 * 8, 16 << 10 * 8, 64 << 10 * 8}
	for _, name := range []string{"gzip", "mcf"} {
		wc, ok := workload.SuiteConfig(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		_, base, err := run(wc, uarch.Baseline(), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"last-value", "stride"} {
			var prev float64
			for i, b := range budgets {
				sized, ok := vpred.ConfigForBudget(kind, b)
				if !ok {
					t.Fatalf("no %s sizing fits %d bits", kind, b)
				}
				cfg := uarch.Baseline()
				cfg.VPred = vpredFor(wc, sized)
				_, res, err := run(wc, cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				cpi := res.CPI()
				t.Logf("%s %s %d KB: CPI %.4f (base %.4f)", name, kind, b/8/1024, cpi, base.CPI())
				if i > 0 && cpi > prev {
					t.Errorf("%s %s: CPI rose from %.4f to %.4f when the budget grew to %d KB",
						name, kind, prev, cpi, b/8/1024)
				}
				prev = cpi
			}
			if prev >= base.CPI() {
				t.Errorf("%s %s at the largest budget: CPI %.4f did not beat the baseline %.4f",
					name, kind, prev, base.CPI())
			}
		}
	}
}

// TestC2ThrottleCost is C2's acceptance property: in a trace-driven model
// with no wrong-path fetch cost, throttling can only cost cycles — CPI must
// rise monotonically as the post-low-confidence fetch rate drops, and the
// measured frontend contributor of the penalty must grow (the stretched
// refill is exactly what the decomposer's frontend term charges).
func TestC2ThrottleCost(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment skipped in -short mode")
	}
	p := goldenParams()
	wc, _ := workload.SuiteConfig("crafty")
	rates := []float64{0, 0.75, 0.5, 0.25}
	var prevCPI, prevFrontend float64
	for i, rate := range rates {
		cfg := uarch.Baseline()
		cfg.FetchRate = rate
		soa, res, err := run(wc, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.NewPackedDecomposer(soa, res)
		if err != nil {
			t.Fatal(err)
		}
		m := core.Mean(d.DecomposeAll())
		t.Logf("rate %.2f: CPI %.4f frontend %.2f", rate, res.CPI(), m.Frontend)
		if i > 0 {
			if res.CPI() < prevCPI {
				t.Errorf("rate %.2f: CPI %.4f fell below the faster rate's %.4f", rate, res.CPI(), prevCPI)
			}
			if m.Frontend <= prevFrontend {
				t.Errorf("rate %.2f: frontend contributor %.2f did not grow past %.2f", rate, m.Frontend, prevFrontend)
			}
		}
		prevCPI, prevFrontend = res.CPI(), m.Frontend
	}
}

// TestC1PresetsBeatBaseline pins the headline C1 claim for the tag-free
// kinds: the last-value and stride presets improve CPI over no value
// speculation on both study workloads — value prediction's potential is
// positive wherever the value stream has predictable structure. FCM only
// has to engage (hits > 0): its context-hash aliasing can make it a net
// loss at canonical sizing on some workloads (at full sizing it loses on
// gzip and wins big on mcf — see the C1 table), which is the honest cost
// of context-based prediction, not a wiring bug.
func TestC1PresetsBeatBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment skipped in -short mode")
	}
	p := goldenParams()
	for _, name := range []string{"gzip", "mcf"} {
		wc, _ := workload.SuiteConfig(name)
		_, base, err := run(wc, uarch.Baseline(), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range vpred.PresetNames() {
			preset, _ := vpred.Preset(kind)
			cfg := uarch.Baseline()
			cfg.VPred = vpredFor(wc, preset)
			_, res, err := run(wc, cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.ValuePredHits == 0 {
				t.Errorf("%s %s: no value-prediction hits", name, kind)
			}
			if kind != "fcm" && res.CPI() >= base.CPI() {
				t.Errorf("%s %s: CPI %.4f did not improve on baseline %.4f", name, kind, res.CPI(), base.CPI())
			}
		}
	}
}
