package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/engine"
	"intervalsim/internal/experiments"
	"intervalsim/internal/overlay"
	"intervalsim/internal/report"
	"intervalsim/internal/service"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// bootDaemon starts an in-process intervalsimd behind httptest.
func bootDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	s := service.New(service.Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return ts
}

// TestDryRunPrintsPlanWithoutDispatching: -dry-run must render the shard
// plan and exit 0 even though the named endpoints don't exist — nothing may
// be contacted.
func TestDryRunPrintsPlanWithoutDispatching(t *testing.T) {
	var out, errb bytes.Buffer
	code := realMain([]string{
		"-endpoints", "nowhere-a:9,nowhere-b:9",
		"-bench", "gzip,gcc",
		"-widths", "2", "-depths", "3", "-robs", "64,128",
		"-dry-run",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	plan := out.String()
	if !strings.Contains(plan, "plan: 4 points, 4 batches, 2 benchmarks, 2 endpoints") {
		t.Errorf("plan summary missing:\n%s", plan)
	}
	// Workload affinity: each benchmark pinned to one node of the pair.
	if !strings.Contains(plan, "gzip") || !strings.Contains(plan, "gcc") ||
		!strings.Contains(plan, "nowhere-a:9") || !strings.Contains(plan, "nowhere-b:9") {
		t.Errorf("plan missing benches/endpoints:\n%s", plan)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                                         // no endpoints
		{"-endpoints", "a", "-bench", "doom"},                      // unknown benchmark
		{"-endpoints", "a", "-mode", "oracular"},                   // bad mode
		{"-endpoints", "a", "-widths", "0"},                        // bad axis value
		{"-endpoints", "a", "-format", "parquet"},                  // bad format
		{"-endpoints", "a", "stray-arg"},                           // positional junk
		{"-endpoints", "a", "-insts", "0"},                         // non-positive insts
		{"-endpoints", "a", "-insts", "20000", "-warmup", "30000"}, // warmup past insts
		{"-endpoints", "a", "-insts", "20000", "-warmup", "20000"}, // warmup equal to insts
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := realMain(args, &out, &errb); code != 2 {
			t.Errorf("args %q: exit = %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-version"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.HasPrefix(out.String(), "sweepctl ") {
		t.Errorf("version output %q", out.String())
	}
}

// TestDistributedSweepMatchesReference drives sweepctl end to end against
// two real daemons and byte-compares the merged CSV with a directly computed
// single-process reference.
func TestDistributedSweepMatchesReference(t *testing.T) {
	a, b := bootDaemon(t), bootDaemon(t)

	const insts, warmup = 15_000, 3_000
	var out, errb bytes.Buffer
	code := realMain([]string{
		"-endpoints", a.URL + "," + b.URL,
		"-bench", "gzip",
		"-insts", fmt.Sprint(insts), "-warmup", fmt.Sprint(warmup),
		"-widths", "2,4", "-depths", "3", "-robs", "64,128",
		"-batch", "1",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}

	wc, _ := workload.SuiteConfig("gzip")
	soa, err := experiments.SharedTrace(wc, insts)
	if err != nil {
		t.Fatal(err)
	}
	base := uarch.Baseline()
	ov, err := overlay.Shared.Get(soa, base.Pred, base.Mem)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	want.WriteString("width,depth,rob,ipc,avg_penalty,penalty_frontend,penalty_drain,penalty_fu,penalty_shortd,penalty_longd\n")
	for _, w := range []int{2, 4} {
		for _, r := range []int{64, 128} {
			cfg := experiments.Point(w, 3, r)
			res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
				RecordMispredicts: true, RecordLoadLevels: true, WarmupInsts: warmup, Overlay: ov,
			})
			if err != nil {
				t.Fatal(err)
			}
			dec, err := core.NewPackedDecomposer(soa, res)
			if err != nil {
				t.Fatal(err)
			}
			m := core.Mean(dec.DecomposeAll())
			fmt.Fprintf(&want, "%d,%d,%d,%.3f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
				w, 3, r, res.IPC(), m.Total, m.Frontend, m.BaseILP, m.FULatency, m.ShortDMiss, m.LongDMiss)
		}
	}
	if out.String() != want.String() {
		t.Errorf("distributed CSV differs from reference:\ngot:\n%swant:\n%s", out.String(), want.String())
	}
	if !strings.Contains(errb.String(), "cluster: 4 points (4 ok, 0 failed)") {
		t.Errorf("stderr missing fleet summary:\n%s", errb.String())
	}
}

// TestNDJSONFormat: -format ndjson emits one parseable object per point,
// in canonical order, with the benchmark named on every row.
func TestNDJSONFormat(t *testing.T) {
	a := bootDaemon(t)
	var out, errb bytes.Buffer
	code := realMain([]string{
		"-endpoints", a.URL,
		"-bench", "gzip",
		"-insts", "10000", "-warmup", "2000",
		"-widths", "2,4", "-depths", "3", "-robs", "64",
		"-format", "ndjson",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", len(lines), out.String())
	}
	for i, line := range lines {
		var row struct {
			Bench string  `json:"bench"`
			Seq   int     `json:"seq"`
			Width int     `json:"width"`
			IPC   float64 `json:"ipc"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if row.Bench != "gzip" || row.Seq != i || row.IPC <= 0 {
			t.Errorf("line %d = %+v, want gzip seq %d with positive ipc", i, row, i)
		}
	}
}

// TestAdmissionParity: every refusal of the shared run-spec table
// (internal/engine/testdata/admission.json) exits 2 with the rule's one
// message behind sweepctl's prefix, before any endpoint is contacted.
// Decompose is not a sweepctl flag, so that row does not apply.
func TestAdmissionParity(t *testing.T) {
	var cases []struct {
		Name string
		Spec engine.Spec
		Want string
	}
	raw, err := os.ReadFile("../../internal/engine/testdata/admission.json")
	if err == nil {
		err = json.Unmarshal(raw, &cases)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		s := c.Spec
		if s.Decompose {
			continue
		}
		args := []string{"-endpoints", "127.0.0.1:1", "-bench", "gzip",
			"-mode=" + s.Mode, fmt.Sprint("-insts=", s.Insts), fmt.Sprint("-warmup=", s.Warmup),
			"-pred=" + s.Pred, "-vpred=" + s.VPred, fmt.Sprint("-fetchrate=", s.FetchRate),
			fmt.Sprint("-sample-detailed=", s.SampleDetailed), fmt.Sprint("-sample-skip=", s.SampleSkip)}
		var out, errb bytes.Buffer
		if code := realMain(args, &out, &errb); code != 2 || errb.String() != "sweepctl: "+c.Want+"\n" {
			t.Errorf("%s: exit %d, stderr %q, want 2 and %q", c.Name, code, errb.String(), "sweepctl: "+c.Want)
		}
	}
}

// TestSampledMatchesInProcess: sweepctl runs sampled sweeps, and the merged
// CSV from two daemons is byte-equal to the in-process sweep's (the
// canonical grid through internal/engine, rendered as cmd/sweep renders it).
func TestSampledMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid distributed sweep skipped in -short mode")
	}
	a, b := bootDaemon(t), bootDaemon(t)
	spec := engine.Spec{Mode: engine.ModeSampled, Insts: 12_000, Warmup: 2_000, SampleDetailed: 500, SampleSkip: 1_500}
	var out, errb bytes.Buffer
	code := realMain([]string{
		"-endpoints", a.URL + "," + b.URL, "-bench", "gzip", "-mode", "sampled",
		"-insts", "12000", "-warmup", "2000", "-sample-detailed", "500", "-sample-skip", "1500",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}

	wc, _ := workload.SuiteConfig("gzip")
	soa, err := trace.PackReader(workload.MustNew(wc, spec.Insts))
	if err != nil {
		t.Fatal(err)
	}
	base := spec.Machine(wc)
	exec, err := engine.New(spec, base, 256, soa, overlay.Shared.GetSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := report.New("", engine.CSVHeader(spec.Mode)...)
	widths, depths, robs := experiments.DefaultGrid()
	for _, w := range widths {
		for _, d := range depths {
			for _, r := range robs {
				res, err := exec.Run(context.Background(), engine.PointConfig(base, w, d, r))
				if err != nil {
					t.Fatal(err)
				}
				want.AddRow(engine.CSVRow(spec.Mode, w, d, r, res)...)
			}
		}
	}
	var ref bytes.Buffer
	if err := want.FprintCSV(&ref); err != nil {
		t.Fatal(err)
	}
	if out.String() != ref.String() {
		t.Errorf("sampled sweepctl CSV differs from in-process:\n--- sweepctl ---\n%s--- in-process ---\n%s", out.String(), ref.String())
	}
	if !strings.Contains(errb.String(), "cluster: 27 points (27 ok, 0 failed)") {
		t.Errorf("stderr missing fleet summary:\n%s", errb.String())
	}
}
