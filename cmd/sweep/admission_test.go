package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"intervalsim/internal/cluster"
	"intervalsim/internal/engine"
	"intervalsim/internal/service"
	"intervalsim/internal/store"
)

// admissionCase is one row of the run-spec refusals every surface shares
// (internal/engine/testdata/admission.json).
type admissionCase struct {
	Name string
	Spec engine.Spec
	Want string
}

func admissionCases(t testing.TB) []admissionCase {
	var cases []admissionCase
	raw, err := os.ReadFile("../../internal/engine/testdata/admission.json")
	if err == nil {
		err = json.Unmarshal(raw, &cases)
	}
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// specArgs spells s as the shared run-axis flags.
func specArgs(s engine.Spec) []string {
	return []string{"-mode=" + s.Mode, fmt.Sprint("-insts=", s.Insts), fmt.Sprint("-warmup=", s.Warmup),
		"-pred=" + s.Pred, "-vpred=" + s.VPred, fmt.Sprint("-fetchrate=", s.FetchRate),
		fmt.Sprint("-sample-detailed=", s.SampleDetailed), fmt.Sprint("-sample-skip=", s.SampleSkip)}
}

// TestAdmissionParity drives every refusal of the shared table through the
// sweep command (exit 2), the cluster coordinator (an error before any
// request leaves the process) and the daemon's /v1/sweep, /v1/batch and
// /v1/sweepjobs (400): each surface answers with the same rule text behind
// its own prefix. Rows a surface cannot spell are skipped there: only
// /v1/batch and cluster.Options carry Decompose, and the wire reads an
// omitted (zero) insts as the default.
func TestAdmissionParity(t *testing.T) {
	st, err := store.Open(store.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := service.New(service.Options{Workers: 1, Store: st})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	for deadline := time.Now().Add(30 * time.Second); !s.Ready(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
	}
	var contacted atomic.Int32
	fleet := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		contacted.Add(1)
		http.Error(w, "no", http.StatusTeapot)
	}))
	t.Cleanup(fleet.Close)

	for _, c := range admissionCases(t) {
		sp := c.Spec
		if !sp.Decompose {
			var out, errb bytes.Buffer
			if code := realMain(append([]string{"-bench", "gzip"}, specArgs(sp)...), &out, &errb); code != 2 || errb.String() != "sweep: "+c.Want+"\n" {
				t.Errorf("%s: sweep exit %d, stderr %q, want 2 and %q", c.Name, code, errb.String(), "sweep: "+c.Want)
			}
		}

		_, err := cluster.Run(context.Background(), cluster.Options{
			Endpoints: []string{fleet.URL}, Benches: []string{"gzip"},
			Widths: []int{2}, Depths: []int{3}, ROBs: []int{64}, Spec: sp,
		}, func(*cluster.Row) error { return nil })
		if err == nil || err.Error() != "cluster: "+c.Want {
			t.Errorf("%s: cluster.Run = %v, want %q", c.Name, err, "cluster: "+c.Want)
		}
		if n := contacted.Load(); n != 0 {
			t.Fatalf("%s: cluster.Run contacted the fleet %d times before refusing", c.Name, n)
		}

		if sp.Insts == 0 {
			continue
		}
		sweep := service.SweepRequest{Benchmark: "gzip", Insts: sp.Insts, Warmup: sp.Warmup, Mode: sp.Mode,
			SampleDetailed: sp.SampleDetailed, SampleSkip: sp.SampleSkip, Pred: sp.Pred, VPred: sp.VPred, FetchRate: sp.FetchRate,
			Widths: []int{2}, Depths: []int{3}, ROBs: []int{64}}
		batch := service.BatchRequest{Benchmark: "gzip", Insts: sp.Insts, Warmup: sp.Warmup, Mode: sp.Mode, Decompose: sp.Decompose,
			SampleDetailed: sp.SampleDetailed, SampleSkip: sp.SampleSkip, Pred: sp.Pred, VPred: sp.VPred, FetchRate: sp.FetchRate,
			Points: []service.BatchPointSpec{{Seq: 0, Width: 2, Depth: 3, ROB: 64}}}
		reqs := map[string]any{"/v1/batch": batch}
		if !sp.Decompose {
			reqs["/v1/sweep"], reqs["/v1/sweepjobs"] = sweep, sweep
		}
		for path, req := range reqs {
			raw, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var body struct{ Error string }
			json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
			resp.Body.Close()
			if want := "service: bad request: " + c.Want; resp.StatusCode != http.StatusBadRequest || body.Error != want {
				t.Errorf("%s: %s status %d error %q, want 400 and %q", c.Name, path, resp.StatusCode, body.Error, want)
			}
		}
	}
}
