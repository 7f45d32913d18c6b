package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cache"
	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/harness"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// testSoA packs a small gzip trace.
func testSoA(t *testing.T) *trace.SoA {
	t.Helper()
	wc, _ := workload.SuiteConfig("gzip")
	soa, err := trace.PackReader(workload.MustNew(wc, 12_000))
	if err != nil {
		t.Fatal(err)
	}
	return soa
}

func testSpec(mode string) Spec {
	return Spec{Mode: mode, Insts: 12_000, Warmup: 2_000, Decompose: mode == ModeSim, SampleDetailed: 1_000, SampleSkip: 2_000}
}

func TestCheckMode(t *testing.T) {
	for _, m := range []string{ModeSim, ModeSampled, ModeModel} {
		if err := CheckMode(m); err != nil {
			t.Errorf("CheckMode(%q) = %v", m, err)
		}
	}
	for _, m := range []string{"", "lockstep", "SIM"} {
		if err := CheckMode(m); err == nil || !strings.Contains(err.Error(), "(want sim, sampled or model)") {
			t.Errorf("CheckMode(%q) = %v, want the mode list", m, err)
		}
	}
}

// TestArtifactsPerMode: sampled mode never asks for an overlay; sim and
// model ask exactly once, for the base machine's speculation configuration.
func TestArtifactsPerMode(t *testing.T) {
	soa := testSoA(t)
	base := uarch.Baseline()
	for _, mode := range []string{ModeSim, ModeSampled, ModeModel} {
		calls := 0
		overlays := func(s *trace.SoA, pred bpred.Config, mem cache.HierarchyConfig, vp *vpred.Config) (*overlay.Overlay, error) {
			calls++
			if pred.Fingerprint() != base.Pred.Fingerprint() {
				t.Errorf("%s: overlay asked for a foreign predictor", mode)
			}
			return overlay.ComputeSpec(s, pred, mem, vp)
		}
		e, err := New(testSpec(mode), base, 256, soa, overlays)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		want := 1
		if mode == ModeSampled {
			want = 0
		}
		if calls != want {
			t.Errorf("%s: %d overlay lookups, want %d", mode, calls, want)
		}
		if (e.models != nil) != (mode == ModeModel) {
			t.Errorf("%s: model set present = %v", mode, e.models != nil)
		}
	}
	if _, err := New(Spec{Mode: "lockstep"}, base, 256, soa, overlay.Shared.GetSpec); err == nil {
		t.Error("New accepted an unknown mode")
	}
}

// TestResultFieldsPerMode: each mode fills its own fields and leaves the
// others zero, which is what lets wire types copy every field.
func TestResultFieldsPerMode(t *testing.T) {
	soa := testSoA(t)
	cfg := experiments.Point(4, 7, 128)
	run := func(mode string) Result {
		e, err := New(testSpec(mode), uarch.Baseline(), 256, soa, overlay.Shared.GetSpec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if r.IPC <= 0 {
			t.Errorf("%s: IPC %v", mode, r.IPC)
		}
		return r
	}

	sim := run(ModeSim)
	if sim.Sim == nil || sim.Cycles != sim.Sim.Cycles || sim.Path != "soa+overlay" {
		t.Errorf("sim: cycles %d path %q sim %v", sim.Cycles, sim.Path, sim.Sim != nil)
	}
	if sim.Penalty.Total == 0 || sim.AvgPenalty != sim.Penalty.Total {
		t.Errorf("sim: decomposed penalty %v, avg %v", sim.Penalty.Total, sim.AvgPenalty)
	}
	if sim.Stack != (Stack{}) || sim.Units != 0 || sim.CPI != (uarch.Interval{}) {
		t.Errorf("sim: model or sampled fields set: %+v", sim)
	}

	sampled := run(ModeSampled)
	if sampled.Units < 2 || !(sampled.CPI.Lower <= sampled.CPI.Mean && sampled.CPI.Mean <= sampled.CPI.Upper) {
		t.Errorf("sampled: units %d interval %+v", sampled.Units, sampled.CPI)
	}
	if sampled.AvgPenalty != 0 || sampled.Penalty != (core.Breakdown{}) || sampled.Stack != (Stack{}) {
		t.Errorf("sampled: penalty or model fields set: %+v", sampled)
	}

	model := run(ModeModel)
	if model.Path != "model" || model.Sim != nil || model.Cycles != 0 {
		t.Errorf("model: path %q sim %v cycles %d", model.Path, model.Sim != nil, model.Cycles)
	}
	if model.Stack.Base <= 0 || model.AvgPenalty <= 0 || model.Prediction.Insts == 0 {
		t.Errorf("model: stack %+v penalty %v", model.Stack, model.AvgPenalty)
	}
	if got := 1 / model.Prediction.CPI(); got != model.IPC {
		t.Errorf("model: IPC %v, want 1/CPI = %v", model.IPC, got)
	}
}

// TestDeterministicErrorsArePermanent: a bad configuration and any model
// failure skip a retrying caller's retry budget, keeping their message and
// sentinel.
func TestDeterministicErrorsArePermanent(t *testing.T) {
	soa := testSoA(t)
	bad := experiments.Point(4, 7, 128)
	bad.ROBSize = -1
	for _, mode := range []string{ModeSim, ModeSampled, ModeModel} {
		e, err := New(testSpec(mode), uarch.Baseline(), 256, soa, overlay.Shared.GetSpec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Run(context.Background(), bad)
		if err == nil || !harness.IsPermanent(err) {
			t.Errorf("%s: err = %v, want a permanent failure", mode, err)
		}
		if mode != ModeModel && !errors.Is(err, uarch.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", mode, err)
		}
	}
	e, err := New(testSpec(ModeSim), uarch.Baseline(), 256, soa, overlay.Shared.GetSpec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, experiments.Point(4, 7, 128)); err == nil || harness.IsPermanent(err) {
		t.Errorf("canceled run: err = %v, want a retryable failure", err)
	}
}

// TestCSVShape: every mode's row has as many cells as its header.
func TestCSVShape(t *testing.T) {
	for _, mode := range []string{ModeSim, ModeSampled, ModeModel} {
		if h, r := len(CSVHeader(mode)), len(CSVRow(mode, 2, 3, 64, Result{})); h != r {
			t.Errorf("%s: %d header columns, %d row cells", mode, h, r)
		}
	}
	if got := strings.Join(CSVRow(ModeSampled, 2, 3, 64, Result{IPC: 1.25, CPI: uarch.Interval{Mean: 0.8, Lower: 0.75, Upper: 0.85, RelErr: 0.0625}, Units: 10}), ","); got != "2,3,64,1.250,0.8000,0.7500,0.8500,0.0625,10" {
		t.Errorf("sampled row = %q", got)
	}
}
