package experiments

import (
	"fmt"
	"math"
	"testing"

	"intervalsim/internal/core"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// TestModelErrorEnvelope is the differential test behind E9: the analytic
// interval model's CPI prediction must stay within the paper's error
// envelope of the detailed cycle-level simulator across a grid of
// (benchmark, frontend depth, ROB size) points. Workload seeds are pinned
// by the suite and both engines are deterministic, so this asserts exact,
// reproducible margins — any simulator or model change that moves a point
// past the envelope fails loudly.
//
// twolf is excluded: its long-D-miss overlap credit is the model's known
// worst case (E9 reports it beyond 5% already at baseline window sizes),
// and the envelope documents the accuracy regime the model is built for,
// not that one known outlier. ROB sizes stop at 128 for the same reason —
// the overlap-credit error grows with window size (see A1's ablation).
func TestModelErrorEnvelope(t *testing.T) {
	const envelope = 0.05 // |CPI error| <= 5%, the E9 acceptance band

	p := Params{Insts: 120_000, Warmup: 20_000}
	depths := []int{5, 9}
	robs := []int{96, 128}

	var worst float64
	var worstPoint string
	for _, wc := range workload.Suite() {
		if wc.Name == "twolf" {
			continue
		}
		for _, depth := range depths {
			for _, rob := range robs {
				cfg := uarch.Baseline()
				cfg.Name = fmt.Sprintf("d%d-r%d", depth, rob)
				cfg.FrontendDepth = depth
				cfg.ROBSize = rob
				if cfg.IQSize > rob/2 {
					cfg.IQSize = rob / 2
				}
				relErr := modelError(t, wc, cfg, p)
				if math.Abs(relErr) > math.Abs(worst) {
					worst = relErr
					worstPoint = wc.Name + " " + cfg.Name
				}
				if math.Abs(relErr) > envelope {
					t.Errorf("%s %s: model CPI error %+.2f%% exceeds ±%.0f%% envelope",
						wc.Name, cfg.Name, relErr*100, envelope*100)
				}
			}
		}
	}
	t.Logf("worst point: %s at %+.2f%%", worstPoint, worst*100)
}

// modelError runs both engines on one grid point and returns the model's
// signed relative CPI error against the simulator.
func modelError(t *testing.T, wc workload.Config, cfg uarch.Config, p Params) float64 {
	t.Helper()
	soa, res, err := run(wc, cfg, p)
	if err != nil {
		t.Fatalf("%s %s: simulate: %v", wc.Name, cfg.Name, err)
	}
	prof, err := core.FunctionalProfile(soa.Reader(), cfg, p.Warmup, 0)
	if err != nil {
		t.Fatalf("%s %s: profile: %v", wc.Name, cfg.Name, err)
	}
	m, err := core.BuildModel(soa, cfg, prof.ShortMissRatio(), p.Insts)
	if err != nil {
		t.Fatalf("%s %s: build model: %v", wc.Name, cfg.Name, err)
	}
	pred, err := m.PredictCPI(prof)
	if err != nil {
		t.Fatalf("%s %s: predict: %v", wc.Name, cfg.Name, err)
	}
	relErr, err := core.ValidationError(pred, res)
	if err != nil {
		t.Fatalf("%s %s: validate: %v", wc.Name, cfg.Name, err)
	}
	return relErr
}
