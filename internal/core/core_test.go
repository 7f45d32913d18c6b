package core

import (
	"math"
	"testing"

	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// testWorkload is a small but miss-diverse benchmark configuration.
func testWorkload() workload.Config {
	return workload.Config{
		Name: "core-test", Seed: 77,
		Regions: 8, BlocksPerRegion: 10,
		BlockSize: workload.Range{Min: 4, Max: 8}, LoopTrip: workload.Range{Min: 6, Max: 20}, RegionTheta: 0.8,
		LoadFrac: 0.25, StoreFrac: 0.10, MulFrac: 0.02, DivFrac: 0.002,
		ChainProb:        0.5,
		RandomBranchFrac: 0.10, RandomBranchBias: 0.5,
		PatternBranchFrac: 0.10, TakenBias: 0.95,
		DataFootprint: 1 << 20, StrideFrac: 0.3, Locality: 1.2,
	}
}

const testLen = 300_000

func runDetailed(t *testing.T, wc workload.Config, cfg uarch.Config) (*trace.SoA, *uarch.Result) {
	t.Helper()
	soa, err := trace.PackReader(workload.MustNew(wc, testLen))
	if err != nil {
		t.Fatal(err)
	}
	res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
		RecordEvents:      true,
		RecordMispredicts: true,
		RecordLoadLevels:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return soa, res
}

func TestDecompositionIdentityAndSigns(t *testing.T) {
	soa, res := runDetailed(t, testWorkload(), uarch.Baseline())
	if len(res.Records) < 100 {
		t.Fatalf("only %d mispredict records", len(res.Records))
	}
	d, err := NewPackedDecomposer(soa, res)
	if err != nil {
		t.Fatal(err)
	}
	bs := d.DecomposeAll()
	if len(bs) < 100 {
		t.Fatalf("only %d breakdowns", len(bs))
	}
	for i, b := range bs {
		sum := b.Frontend + b.BaseILP + b.FULatency + b.ShortDMiss + b.LongDMiss + b.Residual
		if math.Abs(sum-b.Total) > 1e-9 {
			t.Fatalf("breakdown %d does not sum: %v vs %v", i, sum, b.Total)
		}
		if b.Frontend != float64(uarch.Baseline().FrontendDepth) {
			t.Fatalf("breakdown %d frontend = %v", i, b.Frontend)
		}
		if b.BaseILP < 0 || b.FULatency < 0 || b.ShortDMiss < 0 || b.LongDMiss < 0 {
			t.Fatalf("breakdown %d has negative monotone component: %+v", i, b)
		}
		if b.BaseILP > float64(b.Occupancy)+1 {
			t.Fatalf("breakdown %d: unit drain %v exceeds occupancy %d", i, b.BaseILP, b.Occupancy)
		}
	}
	m := Mean(bs)
	if m.Total < m.Frontend {
		t.Errorf("mean penalty %v below frontend depth %v", m.Total, m.Frontend)
	}
	// The headline result: the average penalty clearly exceeds the frontend
	// pipeline length.
	if m.Total < m.Frontend+2 {
		t.Errorf("mean penalty %v barely above frontend %v; expected substantial drain", m.Total, m.Frontend)
	}
}

func TestDecomposerRequiresLoadLevels(t *testing.T) {
	tr, err := trace.ReadAll(workload.MustNew(testWorkload(), 50_000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := uarch.Run(tr.Reader(), uarch.Baseline(), uarch.Options{RecordMispredicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecomposer(tr, res); err == nil && len(res.Records) > 0 {
		t.Fatal("decomposer accepted result without load levels")
	}
}

func TestMeanEmpty(t *testing.T) {
	if m := Mean(nil); m.Total != 0 {
		t.Error("mean of nothing should be zero")
	}
}

func TestDrainGrowsWithOccupancy(t *testing.T) {
	soa, res := runDetailed(t, testWorkload(), uarch.Baseline())
	d, err := NewPackedDecomposer(soa, res)
	if err != nil {
		t.Fatal(err)
	}
	bs := d.DecomposeAll()
	// Contributor (ii): a branch entering a nearly empty window must drain -
	// and therefore resolve - faster than one entering a full window. The
	// drain components (everything except the constant frontend refill and
	// the residual) are the clean signal; total penalties are noisy because
	// long-miss loads can land in any window.
	drain := func(b Breakdown) float64 { return b.BaseILP + b.FULatency + b.ShortDMiss }
	var shortSum, longSum float64
	var shortN, longN int
	for _, b := range bs {
		switch {
		case b.Occupancy <= 8:
			shortSum += drain(b)
			shortN++
		case b.Occupancy >= 64:
			longSum += drain(b)
			longN++
		}
	}
	if shortN < 10 || longN < 10 {
		t.Skipf("not enough samples: short=%d long=%d", shortN, longN)
	}
	if shortSum/float64(shortN) >= longSum/float64(longN) {
		t.Errorf("drain at low occupancy (%.1f) not below high occupancy (%.1f)",
			shortSum/float64(shortN), longSum/float64(longN))
	}
}

func TestFunctionalProfileMatchesDetailedEvents(t *testing.T) {
	wc := testWorkload()
	cfg := uarch.Baseline()
	soa, res := runDetailed(t, wc, cfg)
	prof, err := FunctionalProfile(soa.Reader(), cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Insts != uint64(soa.Len()) {
		t.Fatalf("profile insts = %d", prof.Insts)
	}
	// The predictor and I-cache see the identical in-order stream in both
	// simulators, so those event counts must agree exactly.
	if prof.Mispredicts != res.Mispredicts {
		t.Errorf("mispredicts: functional %d vs detailed %d", prof.Mispredicts, res.Mispredicts)
	}
	if prof.ICacheMisses != res.ICacheMisses {
		t.Errorf("icache misses: functional %d vs detailed %d", prof.ICacheMisses, res.ICacheMisses)
	}
	// D-cache access order differs (program order vs issue order): counts
	// must agree within a modest tolerance.
	relClose := func(a, b uint64, tol float64) bool {
		if a == b {
			return true
		}
		den := math.Max(float64(a), float64(b))
		return math.Abs(float64(a)-float64(b))/den <= tol
	}
	if !relClose(prof.LongDMisses, res.LongDMisses, 0.25) {
		t.Errorf("long misses: functional %d vs detailed %d", prof.LongDMisses, res.LongDMisses)
	}
	if !relClose(prof.ShortDMisses, res.ShortDMisses, 0.35) {
		t.Errorf("short misses: functional %d vs detailed %d", prof.ShortDMisses, res.ShortDMisses)
	}
}

func TestModelPenaltyMonotoneAndAboveFrontend(t *testing.T) {
	wc := testWorkload()
	cfg := uarch.Baseline()
	prof, err := FunctionalProfile(workload.MustNew(wc, testLen), cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	soa, err := trace.PackReader(workload.MustNew(wc, testLen))
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModel(soa, cfg, prof.ShortMissRatio(), testLen)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, d := range []uint64{0, 2, 8, 32, 128, 512} {
		p := m.MispredictPenalty(d)
		if p < float64(cfg.FrontendDepth) {
			t.Errorf("penalty(%d) = %v below frontend depth", d, p)
		}
		if p < prev {
			t.Errorf("penalty not monotone at distance %d: %v < %v", d, p, prev)
		}
		prev = p
	}
	// Saturation: beyond the ROB size the window cannot grow.
	if m.MispredictPenalty(1<<20) != m.MispredictPenalty(uint64(cfg.ROBSize)) {
		t.Error("penalty does not saturate at ROB size")
	}
}

func TestModelCPIValidation(t *testing.T) {
	wc := testWorkload()
	cfg := uarch.Baseline()
	soa, res := runDetailed(t, wc, cfg)
	prof, err := FunctionalProfile(soa.Reader(), cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModel(soa, cfg, prof.ShortMissRatio(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.PredictCPI(prof)
	if err != nil {
		t.Fatal(err)
	}
	relErr, err := ValidationError(pred, res)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("model CPI %.3f vs measured %.3f (err %.1f%%)", pred.CPI(), res.CPI(), relErr*100)
	if math.Abs(relErr) > 0.15 {
		t.Errorf("model error %.1f%% exceeds 15%%", relErr*100)
	}
	if pred.Base <= 0 || pred.Bpred <= 0 {
		t.Errorf("degenerate breakdown: %+v", pred)
	}
}

func TestValidationErrorEmptyResult(t *testing.T) {
	if _, err := ValidationError(CPIBreakdown{}, &uarch.Result{}); err == nil {
		t.Fatal("empty result accepted")
	}
}

func TestCPIBreakdownAccessors(t *testing.T) {
	b := CPIBreakdown{Insts: 100, Base: 25, Bpred: 10, ICache: 5, LongData: 10}
	if b.Total() != 50 {
		t.Errorf("total = %v", b.Total())
	}
	if b.CPI() != 0.5 {
		t.Errorf("cpi = %v", b.CPI())
	}
	if (CPIBreakdown{}).CPI() != 0 {
		t.Error("empty breakdown CPI should be 0")
	}
}
