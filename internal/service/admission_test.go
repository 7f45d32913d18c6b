package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"testing"

	"intervalsim/internal/engine"
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
	raw, err := os.ReadFile("../engine/testdata/admission.json")
	if err == nil {
		err = json.Unmarshal(raw, &cases)
	}
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// FuzzBatchRequestBody feeds arbitrary bytes through /v1/batch admission:
// decoding and resolution never panic, every refusal is a client error
// (HTTP 400), and every admitted batch is a canonical, valid run whose
// points all pass uarch.Config.Validate.
func FuzzBatchRequestBody(f *testing.F) {
	for _, c := range admissionCases(f) {
		s := c.Spec
		f.Add(mustJSON(BatchRequest{
			Benchmark: "gzip", Insts: s.Insts, Warmup: s.Warmup, Mode: s.Mode, Decompose: s.Decompose,
			SampleDetailed: s.SampleDetailed, SampleSkip: s.SampleSkip, Pred: s.Pred, VPred: s.VPred, FetchRate: s.FetchRate,
			Points: []BatchPointSpec{{Seq: 0, Width: 2, Depth: 4, ROB: 64}},
		}))
	}
	f.Add([]byte(`{"benchmark":"gzip","insts":20000,"pred":"tournament","fetchrate":1,"points":[{"seq":3,"width":8,"depth":11,"rob":256}]}`))
	f.Add([]byte(`{"benchmark":"mcf","mode":"sampled","sample_detailed":1000,"sample_skip":2000,"points":[{"seq":0,"width":4,"depth":3,"rob":70000}]}`))
	f.Add([]byte(`{"workload":{"Name":"w","Seed":1},"insts":5000,"points":[]}`))
	s := New(Options{})
	defer s.Shutdown(context.Background()) //nolint:errcheck
	f.Fuzz(func(t *testing.T, body []byte) {
		var req BatchRequest
		err := decodeJSON(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)), &req)
		if err == nil {
			var in pointInputs
			if in, err = s.resolveBatch(&req); err == nil {
				if verr := in.spec.Validate(); verr != nil || in.spec != in.spec.Canonical() {
					t.Fatalf("admitted spec %+v: valid %v, canonical %v", in.spec, verr, in.spec == in.spec.Canonical())
				}
				for _, sp := range in.points {
					if verr := engine.PointConfig(in.cfg, sp.Width, sp.Depth, sp.ROB).Validate(); verr != nil {
						t.Fatalf("admitted point %+v: %v", sp, verr)
					}
				}
				return
			}
		}
		if !errors.Is(err, errBadRequest) {
			t.Fatalf("refusal %v is not a client error", err)
		}
	})
}
