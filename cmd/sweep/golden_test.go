package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"intervalsim/internal/service"
	"intervalsim/internal/store"
)

// -update regenerates testdata/golden_surfaces.txt instead of comparing:
//
//	go test ./cmd/sweep -run TestSweepSurfaceGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_surfaces.txt instead of comparing")

// goldenArgs and goldenSampled pin the sizing of the surface golden: gzip, 20k
// instructions with 5k warmup, and sampling phases short enough that every
// sampled point measures several units.
var (
	goldenArgs    = []string{"-bench", "gzip", "-insts", "20000", "-warmup", "5000"}
	goldenSampled = []string{"-sample-detailed", "1000", "-sample-skip", "2000"}
)

// TestSweepSurfaceGolden pins the bytes of every surface that answers the
// what-if sweep question, in all three modes, on one small workload: the
// sweep CLI's CSV (in-process, and -endpoints against a daemon, which must
// match it), the /v1/sweep and /v1/batch NDJSON points (sorted by seq, the
// trailer's elapsed masked), the /v1/sweepjobs CSV and job ID, and the
// /v1/simulate and /v1/model results. A refactor of the per-point execution
// path must leave all of it byte-identical.
func TestSweepSurfaceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("surface golden skipped in -short mode")
	}
	st, err := store.Open(store.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := service.New(service.Options{Workers: 2, Store: st})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	for deadline := time.Now().Add(30 * time.Second); !s.Ready(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
	}

	var got bytes.Buffer
	for _, mode := range []string{"sim", "sampled", "model"} {
		args := append(append([]string{}, goldenArgs...), "-mode", mode)
		if mode == "sampled" {
			args = append(args, goldenSampled...)
		}
		local := runSweep(t, append(args, "-j", "2"))
		if dist := runSweep(t, append(args, "-endpoints", ts.URL)); dist != local {
			t.Errorf("mode %s: -endpoints CSV differs from in-process:\n--- local ---\n%s--- distributed ---\n%s", mode, local, dist)
		}
		fmt.Fprintf(&got, "== sweep -mode %s\n%s", mode, local)
	}

	var specs []service.BatchPointSpec
	for _, w := range []int{2, 4, 8} {
		for _, d := range []int{3, 7, 11} {
			for _, r := range []int{64, 128, 256} {
				specs = append(specs, service.BatchPointSpec{Seq: len(specs), Width: w, Depth: d, ROB: r})
			}
		}
	}
	for _, mode := range []string{"sim", "sampled", "model"} {
		sweep := service.SweepRequest{Benchmark: "gzip", Insts: 20000, Warmup: 5000, Mode: mode}
		batch := service.BatchRequest{Benchmark: "gzip", Insts: 20000, Warmup: 5000, Mode: mode,
			Decompose: mode == "sim", Points: specs}
		if mode == "sampled" {
			sweep.SampleDetailed, sweep.SampleSkip = 1000, 2000
			batch.SampleDetailed, batch.SampleSkip = 1000, 2000
		}
		fmt.Fprintf(&got, "== /v1/sweep mode %s\n%s", mode, sortedStream(t, post(t, ts.URL+"/v1/sweep", sweep)))
		fmt.Fprintf(&got, "== /v1/batch mode %s\n%s", mode, sortedStream(t, post(t, ts.URL+"/v1/batch", batch)))

		var job service.JobView
		decodeJSON(t, post(t, ts.URL+"/v1/sweepjobs", sweep), &job)
		for deadline := time.Now().Add(60 * time.Second); job.Status != service.JobDone; time.Sleep(10 * time.Millisecond) {
			if job.Status == service.JobFailed || time.Now().After(deadline) {
				t.Fatalf("sweep job %s: %s %s", job.ID, job.Status, job.Error)
			}
			id := job.ID
			job = service.JobView{}
			decodeJSON(t, get(t, ts.URL+"/v1/sweepjobs/"+id), &job)
		}
		fmt.Fprintf(&got, "== /v1/sweepjobs mode %s id %s\n%s", mode, job.ID, get(t, ts.URL+"/v1/sweepjobs/"+job.ID+"/csv"))
	}

	for _, m := range []service.MachineSpec{{}, {Width: 2, Depth: 11, ROB: 64}} {
		req := service.SimulateRequest{Benchmark: "gzip", Insts: 20000, Warmup: 5000, Machine: m}
		var job service.JobView
		decodeJSON(t, post(t, ts.URL+"/v1/simulate", req), &job)
		for deadline := time.Now().Add(60 * time.Second); job.Status != service.JobDone; time.Sleep(5 * time.Millisecond) {
			if job.Status == service.JobFailed || time.Now().After(deadline) {
				t.Fatalf("simulate job %s: %s %s", job.ID, job.Status, job.Error)
			}
			id := job.ID
			job = service.JobView{}
			decodeJSON(t, get(t, ts.URL+"/v1/jobs/"+id), &job)
		}
		label := fmt.Sprintf("width %d depth %d rob %d", m.Width, m.Depth, m.ROB)
		fmt.Fprintf(&got, "== /v1/simulate %s id %s\n%s\n", label, job.ID, job.Result)
		fmt.Fprintf(&got, "== /v1/model %s\n%s", label, post(t, ts.URL+"/v1/model", req))
	}

	path := filepath.Join("testdata", "golden_surfaces.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("surface bytes drifted at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("surface bytes drifted: %d lines, want %d", len(gl), len(wl))
	}
}

func runSweep(t *testing.T, args []string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := realMain(args, &out, &errb); code != 0 {
		t.Fatalf("sweep %v: exit %d (stderr: %s)", args, code, errb.String())
	}
	return out.String()
}

func post(t *testing.T, url string, body any) string {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return readBody(t, resp, url)
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return readBody(t, resp, url)
}

func readBody(t *testing.T, resp *http.Response, url string) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

func decodeJSON(t *testing.T, body string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
}

var elapsedField = regexp.MustCompile(`"elapsed":"[^"]*"`)

// sortedStream orders an NDJSON point stream by seq (points arrive in
// completion order) and masks the trailer's wall-clock field.
func sortedStream(t *testing.T, body string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream too short: %q", body)
	}
	points, trailer := lines[:len(lines)-1], lines[len(lines)-1]
	seqOf := func(line string) int {
		var p struct{ Seq int }
		decodeJSON(t, line, &p)
		return p.Seq
	}
	sort.SliceStable(points, func(i, j int) bool { return seqOf(points[i]) < seqOf(points[j]) })
	return strings.Join(points, "\n") + "\n" + elapsedField.ReplaceAllString(trailer, `"elapsed":"-"`) + "\n"
}
