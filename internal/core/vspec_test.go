package core

import (
	"math"
	"reflect"
	"testing"

	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

func vspecWorkload(t *testing.T, name string, insts int) (workload.Config, *trace.Trace, *trace.SoA) {
	t.Helper()
	wc, ok := workload.SuiteConfig(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	tr, err := trace.ReadAll(workload.MustNew(wc, insts))
	if err != nil {
		t.Fatal(err)
	}
	return wc, tr, trace.Pack(tr)
}

// TestVPredProfileMatchesOverlayProfile extends the profile-side equivalence
// gate to value speculation: the functional profile driving a live
// vpred.Runner must DeepEqual the one reconstructed from a vpred-aware
// overlay's bits 6/7, events and all.
func TestVPredProfileMatchesOverlayProfile(t *testing.T) {
	for _, wname := range []string{"gzip", "mcf"} {
		wc, tr, soa := vspecWorkload(t, wname, 40_000)
		for _, kind := range vpred.PresetNames() {
			cfg := uarch.Baseline()
			vp, _ := vpred.Preset(kind)
			vp.Stream = wc.ValueStream()
			cfg.VPred = &vp
			ov, err := overlay.ComputeSpec(soa, cfg.Pred, cfg.Mem, cfg.VPred)
			if err != nil {
				t.Fatal(err)
			}
			live, err := FunctionalProfile(tr.Reader(), cfg, 10_000, 0)
			if err != nil {
				t.Fatal(err)
			}
			fromOv, err := OverlayProfile(soa, ov, cfg, 10_000, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live, fromOv) {
				t.Errorf("%s/%s: overlay profile differs from functional profile", wname, kind)
			}
			if live.ValuePredHits == 0 || live.ValueMisspecs == 0 {
				t.Errorf("%s/%s: profile shows no value-speculation activity (hits %d, misspecs %d)",
					wname, kind, live.ValuePredHits, live.ValueMisspecs)
			}
		}
	}
}

// TestOverlayProfileRejectsVPredMismatch pins the fingerprint gate in both
// directions: unlike the cycle-level replay's silent fallback, profile
// reconstruction treats a mismatched overlay as a caller error.
func TestOverlayProfileRejectsVPredMismatch(t *testing.T) {
	wc, _, soa := vspecWorkload(t, "gzip", 20_000)
	cfg := uarch.Baseline()
	vp, _ := vpred.Preset("stride")
	vp.Stream = wc.ValueStream()
	cfg.VPred = &vp

	plain, err := overlay.Compute(soa, cfg.Pred, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OverlayProfile(soa, plain, cfg, 0, 0); err == nil {
		t.Error("vpred config accepted a vpred-less overlay")
	}
	vov, err := overlay.ComputeSpec(soa, cfg.Pred, cfg.Mem, cfg.VPred)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OverlayProfile(soa, vov, uarch.Baseline(), 0, 0); err == nil {
		t.Error("classic config accepted a vpred overlay")
	}
	if _, err := NewModelSet(soa, vov, uarch.Baseline(), uarch.Baseline().ROBSize, 0, 0); err == nil {
		t.Error("NewModelSet accepted a vpred overlay for a classic base config")
	}
}

// TestPredictCPIChargesValueMisspecs checks the analytic model carries the
// new miss-event class through to the cycle stack: a profile with value
// misspeculations yields a positive VMisspec term included in the total.
func TestPredictCPIChargesValueMisspecs(t *testing.T) {
	wc, tr, soa := vspecWorkload(t, "mcf", 40_000)
	cfg := uarch.Baseline()
	vp, _ := vpred.Preset("last-value")
	vp.Stream = wc.ValueStream()
	cfg.VPred = &vp

	prof, err := FunctionalProfile(tr.Reader(), cfg, 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if prof.ValueMisspecs == 0 {
		t.Skip("no misspeculations in this trace; nothing to charge")
	}
	m, err := BuildModel(soa, cfg, prof.ShortMissRatio(), 40_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.PredictCPI(prof)
	if err != nil {
		t.Fatal(err)
	}
	if b.VMisspec <= 0 {
		t.Errorf("VMisspec = %v, want > 0 for %d misspeculations", b.VMisspec, prof.ValueMisspecs)
	}
	if got := b.Base + b.Bpred + b.ICache + b.LongData + b.VMisspec; math.Abs(got-b.Total()) > 1e-9 {
		t.Errorf("Total() = %v does not include VMisspec (sum %v)", b.Total(), got)
	}
}

// TestFrontendRefillStretchedByFetchRate pins the fetch-rate-adjusted refill
// term: at rate r the modeled refill grows by exactly 1/r − 1 cycles, and
// rates 0 and 1 leave it untouched.
func TestFrontendRefillStretchedByFetchRate(t *testing.T) {
	cfg := uarch.Baseline()
	base := frontendRefill(cfg)
	if base != float64(cfg.FrontendDepth) {
		t.Fatalf("full-rate refill = %v, want %d", base, cfg.FrontendDepth)
	}
	cfg.FetchRate = 1
	if got := frontendRefill(cfg); got != base {
		t.Errorf("rate 1 refill = %v, want %v", got, base)
	}
	cfg.FetchRate = 0.5
	if got := frontendRefill(cfg); math.Abs(got-(base+1)) > 1e-9 {
		t.Errorf("rate 0.5 refill = %v, want %v", got, base+1)
	}
	cfg.FetchRate = 0.25
	if got := frontendRefill(cfg); math.Abs(got-(base+3)) > 1e-9 {
		t.Errorf("rate 0.25 refill = %v, want %v", got, base+3)
	}
}
