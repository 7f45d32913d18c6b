package engine

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"intervalsim/internal/bpred"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// admissionCase is one row of testdata/admission.json: a spec every surface
// must refuse, and the rule text it must refuse it with.
type admissionCase struct {
	Name string
	Spec Spec
	Want string
}

func admissionCases(t testing.TB) []admissionCase {
	var cases []admissionCase
	raw, err := os.ReadFile("testdata/admission.json")
	if err == nil {
		err = json.Unmarshal(raw, &cases)
	}
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestValidateRules pins each admission rule's one message: the surfaces'
// parity tests compare their refusals against the same table.
func TestValidateRules(t *testing.T) {
	for _, c := range admissionCases(t) {
		if err := c.Spec.Validate(); err == nil || err.Error() != c.Want {
			t.Errorf("%s: Validate() = %v, want %q", c.Name, err, c.Want)
		}
	}
	valid := []Spec{
		{Insts: 1},
		{Mode: ModeSampled, Insts: 10, Warmup: 9, SampleDetailed: 1, SampleSkip: 1},
		{Mode: ModeSim, Insts: 10, Decompose: true, Pred: "tage", VPred: "fcm", FetchRate: 1},
		{Mode: ModeModel, Insts: 10, FetchRate: 0.5},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
}

// TestCanonical: one spelling per run, and nothing else moves.
func TestCanonical(t *testing.T) {
	for _, c := range []struct{ in, want Spec }{
		{Spec{Insts: 10}, Spec{Mode: ModeSim, Insts: 10}},
		{Spec{Mode: ModeModel, Pred: "tournament", FetchRate: 1}, Spec{Mode: ModeModel}},
		{Spec{Mode: ModeSim, Pred: "tage", VPred: "stride", FetchRate: 0.5}, Spec{Mode: ModeSim, Pred: "tage", VPred: "stride", FetchRate: 0.5}},
		{Spec{Mode: ModeSampled, SampleDetailed: 1, SampleSkip: 2}, Spec{Mode: ModeSampled, SampleDetailed: 1, SampleSkip: 2}},
	} {
		if got := c.in.Canonical(); got != c.want {
			t.Errorf("%+v.Canonical() = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestMachine: the spec's machine is the baseline under its presets, with
// the workload's value stream.
func TestMachine(t *testing.T) {
	wc, _ := workload.SuiteConfig("gzip")
	if got := (Spec{}).Machine(wc); !reflect.DeepEqual(got, uarch.Baseline()) {
		t.Errorf("default machine %+v, want the baseline", got)
	}
	want := uarch.Baseline()
	want.Pred, _ = bpred.Preset("tage")
	vp, _ := vpred.Preset("stride")
	vp.Stream = wc.ValueStream()
	want.VPred = &vp
	want.FetchRate = 0.5
	if got := (Spec{Pred: "tage", VPred: "stride", FetchRate: 0.5}).Machine(wc); !reflect.DeepEqual(got, want) {
		t.Errorf("machine %+v, want %+v", got, want)
	}
	if p := PointConfig(want, 8, 11, 256); p.Name != "w8-d11-r256" || p.Pred != want.Pred || p.VPred != want.VPred || p.FetchRate != 0.5 {
		t.Errorf("PointConfig lost the base's speculation axes: %+v", p)
	}
}

// TestFlagsDefaults pins the shared command-line defaults.
func TestFlagsDefaults(t *testing.T) {
	var s Spec
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := Spec{Mode: ModeSim, Insts: 1_000_000, Warmup: 200_000, SampleDetailed: 2_000, SampleSkip: 18_000}
	if s != want {
		t.Errorf("defaults %+v, want %+v", s, want)
	}
	if err := fs.Parse([]string{"-mode", "sampled", "-pred", "tage", "-vpred", "fcm", "-fetchrate", "0.25", "-sample-detailed", "7", "-sample-skip", "9", "-insts", "50", "-warmup", "5"}); err != nil {
		t.Fatal(err)
	}
	want = Spec{Mode: ModeSampled, Insts: 50, Warmup: 5, SampleDetailed: 7, SampleSkip: 9, Pred: "tage", VPred: "fcm", FetchRate: 0.25}
	if s != want {
		t.Errorf("parsed %+v, want %+v", s, want)
	}
}

// FuzzSpec: Validate never panics, and admission implies the run can
// start — a valid spec's canonical spelling is valid, builds the same
// machine, and that machine and every in-ceiling grid point on it pass
// uarch.Config.Validate.
func FuzzSpec(f *testing.F) {
	for _, c := range admissionCases(f) {
		s := c.Spec
		f.Add(s.Mode, s.Insts, s.Warmup, s.Decompose, s.SampleDetailed, s.SampleSkip, s.Pred, s.VPred, s.FetchRate, 4, 7, 128, uint8(0))
	}
	f.Add("", 30_000, uint64(2_000), false, uint64(0), uint64(0), "tournament", "stride", 1.0, 8, 11, 256, uint8(3))
	f.Add("sampled", 30_000, uint64(2_000), false, uint64(1_000), uint64(2_000), "tage", "fcm", 0.5, 1024, 1024, 65536, uint8(5))
	suite := workload.Suite()
	f.Fuzz(func(t *testing.T, mode string, insts int, warmup uint64, decompose bool, detailed, skip uint64,
		pred, vp string, fetchRate float64, width, depth, rob int, bench uint8) {
		s := Spec{Mode: mode, Insts: insts, Warmup: warmup, Decompose: decompose, SampleDetailed: detailed, SampleSkip: skip,
			Pred: pred, VPred: vp, FetchRate: fetchRate}
		if s.Validate() != nil {
			return
		}
		c := s.Canonical()
		if err := c.Validate(); err != nil {
			t.Fatalf("canonical %+v of valid %+v: %v", c, s, err)
		}
		wc := suite[int(bench)%len(suite)]
		base, orig := c.Machine(wc), s.Machine(wc)
		if orig.FetchRate == 1 {
			orig.FetchRate = 0 // the one spelling Canonical folds on purpose
		}
		if !reflect.DeepEqual(base, orig) {
			t.Fatalf("canonical %+v builds another machine than %+v", c, s)
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("valid %+v: machine refused: %v", s, err)
		}
		w, d, r := 1+int(uint(width)%1024), 1+int(uint(depth)%1024), 2+int(uint(rob)%65535)
		if err := PointConfig(base, w, d, r).Validate(); err != nil {
			t.Fatalf("valid %+v: point w%d d%d r%d refused: %v", s, w, d, r, err)
		}
	})
}
