package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The self-test runs every workload at a tiny size against the real
// binaries, then shows that each correctness check rejects a tampered
// output. Run it from this directory: go test ./...

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "e2ebench-selftest")
	if err != nil {
		panic(err)
	}
	cmd := exec.Command("go", "build", "-o", dir+"/", "intervalsim/cmd/intervalsimd", "intervalsim/cmd/sweep")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(dir)
		panic("build intervalsimd and sweep: " + err.Error())
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var tinySweep = sweepSize{
	insts: 20_000, warmup: 2_000,
	sampleDetailed: 500, sampleSkip: 1_500,
	widths: canonicalSize.widths, depths: canonicalSize.depths, robs: canonicalSize.robs,
}

var tinyMix = mixSize{
	requests: 60, inline: 12, hot: 4,
	insts: 5_000, warmup: 500,
	sampleDetailed: 200, sampleSkip: 800,
}

// tamper changes one digit of b (the first at or after the middle), so a
// number, a name or a CSV cell no longer matches.
func tamper(t *testing.T, b []byte) []byte {
	t.Helper()
	out := append([]byte(nil), b...)
	for i := len(out) / 2; i < len(out); i++ {
		if c := out[i]; c >= '0' && c <= '9' {
			out[i] = '0' + (c-'0'+1)%10
			return out
		}
	}
	t.Fatalf("no digit to tamper with in %q", b)
	return nil
}

func requireChecksPass(t *testing.T, out *outcome) {
	t.Helper()
	if out.bad != 0 || out.failed != 0 {
		t.Fatalf("checks: %v (failed ops %d)", out.checks, out.failed)
	}
}

func TestSweepWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"sweep-cycle", "sweep-model"} {
		for _, traced := range []bool{false, true} {
			out, err := runSweepWorkload(ctx, sweepWorkloads[name], tinySweep, sweepEnv{
				seed: defaultSeed, traced: traced, workers: 2, sweepBin: filepath.Join(binDir, "sweep"),
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireChecksPass(t, out)
			if want := "sweep-cli-crafty-" + sweepWorkloads[name].timed[0] + ": ok"; !strings.Contains(strings.Join(out.checks, ";"), want) {
				t.Errorf("%s: default seed did not compare against the sweep command: %v", name, out.checks)
			}
			for _, m := range endToEnd {
				if v, ok := out.e2e[m]; !ok || v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %+v, want > 0", name, m, v)
				}
			}
			if !traced {
				continue
			}
			switch name {
			case "sweep-model":
				for _, m := range []string{"uarch.sim_s", "uarch.sampled_s", "uarch.sim_cycles", "core.decompose_s"} {
					if out.layers[m].Value != 0 {
						t.Errorf("sweep-model: %s = %v, want 0", m, out.layers[m].Value)
					}
				}
				if out.layers["core.modelset_for_s"].Value <= 0 {
					t.Errorf("sweep-model: no ModelSet.For time")
				}
			case "sweep-cycle":
				if out.layers["core.modelset_for_s"].Value != 0 {
					t.Errorf("sweep-cycle: core.modelset_for_s = %v, want 0", out.layers["core.modelset_for_s"].Value)
				}
				for _, m := range []string{"uarch.sim_s", "uarch.sampled_s", "uarch.sim_cycles", "trace.build_s", "overlay.compute_s", "report.csv_s"} {
					if out.layers[m].Value <= 0 {
						t.Errorf("sweep-cycle: %s = %v, want > 0", m, out.layers[m].Value)
					}
				}
			}
		}
	}
}

func TestSweepChecksRejectTampering(t *testing.T) {
	ctx := context.Background()
	in, err := seededInput("crafty", 7)
	if err != nil {
		t.Fatal(err)
	}
	var passes []*sweepPass
	for i := 0; i < 2; i++ {
		s, err := runSweep(ctx, nil, "t", in, "sim", tinySweep, 2)
		if err != nil {
			t.Fatal(err)
		}
		passes = append(passes, &sweepPass{sweeps: []*sweepOut{s}})
	}
	sim := passes[1].sweeps[0]
	if err := checkDeterministic(passes); err != nil {
		t.Fatal(err)
	}
	if err := checkOverlayPath(sim); err != nil {
		t.Fatal(err)
	}
	if err := checkLiveResim(ctx, in, tinySweep, sim, 5); err != nil {
		t.Fatal(err)
	}

	good := sim.csv
	sim.csv = tamper(t, good)
	if checkDeterministic(passes) == nil {
		t.Error("deterministic: tampered CSV accepted")
	}
	sim.csv = good

	for _, f := range []func(*simStats){
		func(s *simStats) { s.Fallback = "overlay rejected" },
		func(s *simStats) { s.Path = "soa" },
	} {
		saved := sim.points[3].sim
		f(&sim.points[3].sim)
		if checkOverlayPath(sim) == nil {
			t.Errorf("overlay-path: tampered point %+v accepted", sim.points[3].sim)
		}
		sim.points[3].sim = saved
	}

	sim.points[5].sim.Cycles++
	if checkLiveResim(ctx, in, tinySweep, sim, 5) == nil {
		t.Error("live-resim: tampered cycle count accepted")
	}
	sim.points[5].sim.Cycles--

	crafty, _ := seededInput("crafty", defaultSeed)
	def, err := runSweep(ctx, nil, "t", crafty, "sim", tinySweep, 2)
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(binDir, "sweep")
	if err := checkAgainstCLI(bin, def, tinySweep); err != nil {
		t.Fatal(err)
	}
	def.csv = tamper(t, def.csv)
	if checkAgainstCLI(bin, def, tinySweep) == nil {
		t.Error("sweep-cli: tampered CSV accepted")
	}

	model, err := runSweep(ctx, nil, "t", in, "model", tinySweep, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFreshModel(in, tinySweep, model, 7); err != nil {
		t.Fatal(err)
	}
	model.points[7].modelCPI *= 1.001
	if checkFreshModel(in, tinySweep, model, 7) == nil {
		t.Error("model-fresh-set: tampered CPI accepted")
	}
}

// TestSeededInputKeepsTheProgram shows what the seed changes: the region
// of the benchmark's execution, not the benchmark.
func TestSeededInputKeepsTheProgram(t *testing.T) {
	def, _ := seededInput("mcf", defaultSeed)
	other, _ := seededInput("mcf", 12)
	if def.skip != 0 || other.skip == 0 || other.wc != def.wc {
		t.Fatalf("default %+v, seed 12 %+v", def.skip, other.skip)
	}
	a, err := packTrace(def.wc, def.skip, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := packTrace(other.wc, other.skip, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.At(4_000) == b.At(4_000) && a.At(4_001) == b.At(4_001) && a.At(4_002) == b.At(4_002) {
		t.Error("seeded region looks like the default one")
	}
}

func TestDaemonWorkload(t *testing.T) {
	ctx := context.Background()
	env := daemonEnv{
		seed: 3, workers: 2, clients: 2, traced: true,
		daemonBin: filepath.Join(binDir, "intervalsimd"), runDir: t.TempDir(),
	}
	out, err := runDaemonWorkload(ctx, tinyMix, env)
	if err != nil {
		t.Fatal(err)
	}
	requireChecksPass(t, out)
	for _, m := range endToEnd {
		if v, ok := out.e2e[m]; !ok || v.Value <= 0 {
			t.Errorf("end-to-end %s = %+v, want > 0", m, v)
		}
	}
	for _, m := range []string{"service.model.p50_ms", "service.simulate.p50_ms", "service.batch.p50_ms",
		"service.sweepjob.p50_ms", "service.cold.p50_ms", "overlay.hit_ratio", "store.puts", "go.gc_cycles"} {
		if out.layers[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, out.layers[m].Value)
		}
	}
	if out.layers["uarch.sim_s"].Value != 0 {
		t.Errorf("uarch.sim_s = %v on the daemon workload, want 0 (measured from outside)", out.layers["uarch.sim_s"].Value)
	}
}

func TestDaemonChecksRejectTampering(t *testing.T) {
	ctx := context.Background()
	pool, reqs, err := buildMix(tinyMix, 5)
	if err != nil {
		t.Fatal(err)
	}
	env := daemonEnv{workers: 2, clients: 2, daemonBin: filepath.Join(binDir, "intervalsimd"), runDir: t.TempDir()}
	var rounds []*daemonRound
	for i := 0; i < 2; i++ {
		rd, err := runRound(ctx, env, i, reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, rd)
	}
	if err := checkRounds(reqs, rounds); err != nil {
		t.Fatal(err)
	}
	if err := checkRepeats(reqs, rounds[0].answers); err != nil {
		t.Fatal(err)
	}
	v := newVerifier(pool, tinyMix)
	seen := map[string]bool{}
	for k := range reqs {
		r := &reqs[k]
		if r.first != k || seen[r.kind+r.mode] {
			continue
		}
		seen[r.kind+r.mode] = true
		body := rounds[0].answers[k].body
		if err := v.checkAnswer(ctx, r, body); err != nil {
			t.Fatalf("request %d (%s %s): %v", k, r.kind, r.mode, err)
		}
		if v.checkAnswer(ctx, r, tamper(t, body)) == nil {
			t.Errorf("recomputed-sample: tampered %s %s answer accepted", r.kind, r.mode)
		}
	}
	for _, kind := range []string{"model", "simulate", "batch", "sweepjobsim", "sweepjobsampled"} {
		if !seen[kind] {
			t.Errorf("tiny mix has no %s request to tamper with", kind)
		}
	}

	saved := rounds[1].answers[0].body
	rounds[1].answers[0].body = tamper(t, saved)
	if checkRounds(reqs, rounds) == nil {
		t.Error("rounds-identical: tampered answer accepted")
	}
	rounds[1].answers[0].body = saved

	for k, r := range reqs {
		if r.first != k {
			ans := rounds[0].answers
			saved := ans[k].body
			ans[k].body = tamper(t, saved)
			if checkRepeats(reqs, ans) == nil {
				t.Error("repeats-identical: tampered repeat accepted")
			}
			ans[k].body = saved
			break
		}
	}

	// A batch stream with a failed point or a short trailer is rejected.
	line, _ := json.Marshal(map[string]any{"seq": 0, "width": 2, "depth": 3, "rob": 64, "ipc": 1.5})
	bad, _ := json.Marshal(map[string]any{"seq": 1, "width": 2, "depth": 3, "rob": 64, "error": "boom", "outcome": "error"})
	trailer := func(ok, failed int) []byte {
		b, _ := json.Marshal(map[string]any{"done": true, "points": 2, "ok": ok, "failed": failed})
		return b
	}
	join := func(ls ...[]byte) []byte { return bytes.Join(ls, []byte("\n")) }
	if _, err := canonicalBatch(join(line, trailer(1, 0))); err != nil {
		t.Fatalf("valid one-point batch rejected: %v", err)
	}
	if _, err := canonicalBatch(join(line, bad, trailer(1, 1))); err == nil {
		t.Error("batch with a failed point accepted")
	}
	if _, err := canonicalBatch(join(line)); err == nil {
		t.Error("batch without a trailer accepted")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric lists
// this program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != "sweep-cycle,sweep-model,daemon-mix" {
		t.Errorf("workloads %v", got)
	}
	got = got[:0]
	for _, m := range b.EndToEnd {
		got = append(got, m.Name)
	}
	if strings.Join(got, ",") != strings.Join(endToEnd, ",") {
		t.Errorf("end_to_end %v, program reports %v", got, endToEnd)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program reports %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
