package core

import (
	"math"
	"testing"

	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

func modelSetPoint(width, depth, rob int) uarch.Config {
	cfg := uarch.Baseline()
	cfg.Name = "set-point"
	cfg.FetchWidth = width
	cfg.DispatchWidth = width
	cfg.IssueWidth = width
	cfg.CommitWidth = width
	cfg.FrontendDepth = depth
	cfg.ROBSize = rob
	cfg.IQSize = rob / 2
	return cfg
}

// TestModelSetMatchesBuildModel is the sharing-soundness gate: a model
// composed from a ModelSet's shared characteristics (profiled once over the
// maxROB window ladder) must predict the same penalties as a BuildModel
// call dedicated to that point for every occupancy at or above the smallest
// ladder window — exact, because every grid ROB size is an exact ladder
// node and the model never evaluates a characteristic above the requested
// ROB size. Only occupancy 1 may differ (fitted-power-law fallback below
// the smallest window), bounding the CPI difference below 0.1%.
func TestModelSetMatchesBuildModel(t *testing.T) {
	const insts = 40_000
	wc, _ := workload.SuiteConfig("crafty")
	tr, err := trace.ReadAll(workload.MustNew(wc, insts))
	if err != nil {
		t.Fatal(err)
	}
	soa := trace.Pack(tr)
	base := uarch.Baseline()
	ov, err := overlay.Compute(soa, base.Pred, base.Mem)
	if err != nil {
		t.Fatal(err)
	}
	const maxROB = 256
	set, err := NewModelSet(soa, ov, base, maxROB, 5_000, insts)
	if err != nil {
		t.Fatal(err)
	}

	for _, width := range []int{2, 4, 8} {
		for _, depth := range []int{3, 11} {
			for _, rob := range []int{64, 128, 256} {
				cfg := modelSetPoint(width, depth, rob)
				shared, prof, err := set.For(cfg)
				if err != nil {
					t.Fatalf("For(w%d d%d r%d): %v", width, depth, rob, err)
				}
				direct, err := BuildModel(soa, cfg, prof.ShortMissRatio(), insts)
				if err != nil {
					t.Fatal(err)
				}
				dedicated, err := FunctionalProfile(tr.Reader(), cfg, 5_000, 0)
				if err != nil {
					t.Fatal(err)
				}
				wantPred, err := direct.PredictCPI(dedicated)
				if err != nil {
					t.Fatal(err)
				}
				gotPred, err := shared.PredictCPI(prof)
				if err != nil {
					t.Fatal(err)
				}
				if rel := math.Abs(gotPred.CPI()-wantPred.CPI()) / wantPred.CPI(); rel > 1e-3 {
					t.Errorf("w%d d%d r%d: shared CPI %.9f vs dedicated %.9f (rel %.2g)",
						width, depth, rob, gotPred.CPI(), wantPred.CPI(), rel)
				}
				for occ := uint64(2); occ <= uint64(rob); occ *= 3 {
					if g, w := shared.MispredictPenalty(occ), direct.MispredictPenalty(occ); math.Abs(g-w) > 1e-12 {
						t.Errorf("w%d d%d r%d occ %d: shared penalty %.9f != dedicated %.9f",
							width, depth, rob, occ, g, w)
					}
				}
			}
		}
	}
}

// TestModelSetRejectsOutsideFamily pins the contract checks: a configuration
// that would silently mis-share a characteristic must be refused.
func TestModelSetRejectsOutsideFamily(t *testing.T) {
	const insts = 5_000
	wc, _ := workload.SuiteConfig("gzip")
	tr, err := trace.ReadAll(workload.MustNew(wc, insts))
	if err != nil {
		t.Fatal(err)
	}
	soa := trace.Pack(tr)
	base := uarch.Baseline()
	ov, err := overlay.Compute(soa, base.Pred, base.Mem)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewModelSet(soa, ov, base, 256, 0, insts)
	if err != nil {
		t.Fatal(err)
	}

	pred := modelSetPoint(4, 5, 128)
	pred.Pred.Kind = "bimodal"
	if _, _, err := set.For(pred); err == nil {
		t.Error("different predictor accepted")
	}
	lat := modelSetPoint(4, 5, 128)
	lat.Mem.Lat.Mem = 500
	if _, _, err := set.For(lat); err == nil {
		t.Error("different memory latency accepted")
	}
	fu := modelSetPoint(4, 5, 128)
	fu.FU = fu.FU.Scale(2)
	if _, _, err := set.For(fu); err == nil {
		t.Error("scaled FU latencies accepted")
	}
	offLadder := modelSetPoint(4, 5, 96)
	if _, _, err := set.For(offLadder); err == nil {
		t.Error("non-ladder ROB size accepted")
	}
	tooBig := modelSetPoint(4, 5, 512)
	if _, _, err := set.For(tooBig); err == nil {
		t.Error("ROB above maxROB accepted")
	}
	counts := modelSetPoint(8, 5, 128) // width scales counts, not latencies
	counts.FU.MemPort.Count = 4
	if _, _, err := set.For(counts); err != nil {
		t.Errorf("count-only FU change rejected: %v", err)
	}

	ovMismatch, err := overlay.Compute(soa, pred.Pred, pred.Mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModelSet(soa, ovMismatch, base, 256, 0, insts); err == nil {
		t.Error("NewModelSet accepted an overlay for a different predictor")
	}
}
