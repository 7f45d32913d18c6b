package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// keyedSweeps are the non-default sweeps whose identity TestSweepKeyBytesStable
// pins: every run axis off its default in sim mode, a sampled sweep with its
// phase lengths, and a model sweep over custom axes. key and id were captured
// from the build that introduced them; journal is that build's JournalBegin
// payload for the same sweep (tenant "acme", priority 2).
var keyedSweeps = []struct {
	name    string
	req     SweepRequest
	key     string
	id      string
	journal string
}{
	{"sim tage stride fetchrate", SweepRequest{
		Benchmark: "gzip", Insts: 20_000, Warmup: 5_000,
		Widths: []int{4}, Depths: []int{5}, ROBs: []int{64},
		Pred: "tage", VPred: "stride", FetchRate: 0.5,
	},
		`{"v":1,"kind":"sweep","workload":{"Name":"gzip","Seed":1738649601,"Regions":8,"BlocksPerRegion":12,"BlockSize":{"Min":4,"Max":10},"LoopTrip":{"Min":16,"Max":64},"RegionTheta":1.2,"LoadFrac":0.24,"StoreFrac":0.12,"MulFrac":0.01,"DivFrac":0.001,"FPFrac":0,"ChainProb":0.45,"RandomBranchFrac":0.06,"RandomBranchBias":0.4,"PatternBranchFrac":0.15,"TakenBias":0.96,"DataFootprint":262144,"StrideFrac":0.7,"Locality":1.4},"insts":20000,"warmup":5000,"widths":[4],"depths":[5],"robs":[64],"mode":"sim","pred":"tage","vpred":"stride","fetchrate":0.5,"spec_fp":12367225991687680019}`,
		"s8fd5fa95b439e3d1b0db40387163bb0b",
		`{"benchmark":"gzip","insts":20000,"warmup":5000,"widths":[4],"depths":[5],"robs":[64],"pred":"tage","vpred":"stride","fetchrate":0.5,"mode":"sim","tenant":"acme","priority":2}`},
	{"sampled phases", SweepRequest{
		Benchmark: "mcf", Insts: 30_000, Warmup: 2_000,
		Widths: []int{2}, Depths: []int{3}, ROBs: []int{64, 128},
		Mode: "sampled", SampleDetailed: 1_000, SampleSkip: 2_000,
	},
		`{"v":1,"kind":"sweep","workload":{"Name":"mcf","Seed":1738649604,"Regions":6,"BlocksPerRegion":10,"BlockSize":{"Min":4,"Max":8},"LoopTrip":{"Min":8,"Max":32},"RegionTheta":1.2,"LoadFrac":0.34,"StoreFrac":0.09,"MulFrac":0.01,"DivFrac":0,"FPFrac":0,"ChainProb":0.75,"RandomBranchFrac":0.08,"RandomBranchBias":0.45,"PatternBranchFrac":0.05,"TakenBias":0.95,"DataFootprint":8388608,"StrideFrac":0.05,"Locality":1},"insts":30000,"warmup":2000,"widths":[2],"depths":[3],"robs":[64,128],"mode":"sampled","sample_detailed":1000,"sample_skip":2000,"spec_fp":17466966229543475894}`,
		"s0db7412ea854d1f7ce77973af012d0fe",
		`{"benchmark":"mcf","insts":30000,"warmup":2000,"widths":[2],"depths":[3],"robs":[64,128],"mode":"sampled","sample_detailed":1000,"sample_skip":2000,"tenant":"acme","priority":2}`},
	{"model custom axes", SweepRequest{
		Benchmark: "crafty", Insts: 40_000, Warmup: 4_000,
		Widths: []int{2, 8}, Depths: []int{7}, ROBs: []int{96},
		Pred: "2bc-gskew", VPred: "fcm", FetchRate: 0.25, Mode: "model",
	},
		`{"v":1,"kind":"sweep","workload":{"Name":"crafty","Seed":1738649605,"Regions":48,"BlocksPerRegion":16,"BlockSize":{"Min":4,"Max":9},"LoopTrip":{"Min":6,"Max":20},"RegionTheta":0.6,"LoadFrac":0.27,"StoreFrac":0.08,"MulFrac":0.02,"DivFrac":0.005,"FPFrac":0,"ChainProb":0.4,"RandomBranchFrac":0.08,"RandomBranchBias":0.5,"PatternBranchFrac":0.08,"TakenBias":0.95,"DataFootprint":262144,"StrideFrac":0.2,"Locality":1.5},"insts":40000,"warmup":4000,"widths":[2,8],"depths":[7],"robs":[96],"mode":"model","pred":"2bc-gskew","vpred":"fcm","fetchrate":0.25,"spec_fp":17653968835530805754}`,
		"sfc27fce21144d4f63e54ca2255acc69c",
		`{"benchmark":"crafty","insts":40000,"warmup":4000,"widths":[2,8],"depths":[7],"robs":[96],"pred":"2bc-gskew","vpred":"fcm","fetchrate":0.25,"mode":"model","tenant":"acme","priority":2}`},
}

// TestSweepKeyBytesStable pins the full identity bytes and job IDs of
// non-default durable sweeps (TestSweepSurfaceGolden pins the default ones),
// and checks that journals keep the recorded format and that a journal in
// that format resumes onto the same identity. If this test ever needs new literals, every stored sweep
// artifact under those identities has been orphaned.
func TestSweepKeyBytesStable(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background()) //nolint:errcheck
	for _, c := range keyedSweeps {
		req := c.req
		in, err := s.resolveSweep(&req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		key := sweepKey(in)
		if string(key) != c.key {
			t.Errorf("%s: sweep key bytes drifted:\n got %s\nwant %s", c.name, key, c.key)
		}
		if id := jobID("s", key); id != c.id {
			t.Errorf("%s: job ID = %s, want %s", c.name, id, c.id)
		}

		if j := mustJSON(in.journal(req, "acme", 2)); string(j) != c.journal {
			t.Errorf("%s: journal format drifted:\n got %s\nwant %s", c.name, j, c.journal)
		}
		var spec sweepJobSpec
		if err := json.Unmarshal([]byte(c.journal), &spec); err != nil {
			t.Fatalf("%s: journal: %v", c.name, err)
		}
		if spec.Tenant != "acme" || spec.Priority != 2 {
			t.Errorf("%s: journal lost tenant/priority: %+v", c.name, spec)
		}
		resumed, err := s.resolveSweep(&spec.SweepRequest)
		if err != nil {
			t.Fatalf("%s: resume: %v", c.name, err)
		}
		if k := sweepKey(resumed); string(k) != c.key {
			t.Errorf("%s: resumed journal resolves to another identity:\n got %s\nwant %s", c.name, k, c.key)
		}
	}
}

// TestOneIdentityPerRun: three spellings of one run — the default, an
// explicit baseline predictor, and fetch rate 1 (the full-rate frontend,
// like 0) — share one durable sweep identity and one /v1/simulate store
// key, and answer with identical rows.
func TestOneIdentityPerRun(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	def := SweepRequest{Benchmark: "twolf", Insts: 20_000, Widths: []int{4}, Depths: []int{4}, ROBs: []int{64}}
	tour, full := def, def
	tour.Pred = "tournament"
	full.FetchRate = 1
	var keys [][]byte
	var rows []SweepPoint
	for _, req := range []SweepRequest{def, tour, full} {
		in, err := s.resolveSweep(&req)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, sweepKey(in))
		pts, _ := readSweep(t, postJSON(t, ts.URL+"/v1/sweep", req))
		if len(pts) != 1 || pts[0].Error != "" {
			t.Fatalf("%+v: points %+v", req, pts)
		}
		rows = append(rows, pts[0])
	}
	for i, name := range []string{"pred tournament", "fetchrate 1"} {
		if k := keys[i+1]; !bytes.Equal(k, keys[0]) {
			t.Errorf("%s: sweep job %s, default %s:\n%s\n%s", name, jobID("s", k), jobID("s", keys[0]), k, keys[0])
		}
		if rows[i+1] != rows[0] {
			t.Errorf("%s: row %+v, default %+v", name, rows[i+1], rows[0])
		}
	}

	simDef := SimulateRequest{Benchmark: "twolf", Insts: 20_000, Machine: MachineSpec{Width: 4, Depth: 4, ROB: 64}}
	simTour, simFull := simDef, simDef
	simTour.Machine.Pred = "tournament"
	simFull.Machine.FetchRate = 1
	var simKeys [][]byte
	for _, req := range []SimulateRequest{simDef, simTour, simFull} {
		in, err := s.resolveSimulate(&req)
		if err != nil {
			t.Fatal(err)
		}
		simKeys = append(simKeys, simKey(in))
	}
	for i, name := range []string{"pred tournament", "fetchrate 1"} {
		if !bytes.Equal(simKeys[i+1], simKeys[0]) {
			t.Errorf("%s: simulate key differs from the default:\n%s\n%s", name, simKeys[i+1], simKeys[0])
		}
	}
}
