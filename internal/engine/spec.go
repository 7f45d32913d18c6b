package engine

import (
	"flag"
	"fmt"
	"strings"

	"intervalsim/internal/bpred"
	"intervalsim/internal/experiments"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// Spec is the run spec: every axis one sweep's points share. It is the one
// place the run axes are declared (with their command-line flags, Flags),
// checked (Validate), spelled (Canonical) and turned into machines
// (Machine, PointConfig). The sweep commands, the cluster coordinator and
// the service's request types all map their own inputs onto it, so every
// surface admits the same runs with the same messages.
type Spec struct {
	Mode   string // "" means sim
	Insts  int    // dynamic instructions in the trace
	Warmup uint64 // excluded from statistics; the initial functional skip in sampled mode

	// Decompose adds the mean misprediction-penalty decomposition to each
	// sim-mode point (one decomposition pass per point).
	Decompose bool

	// SampleDetailed/SampleSkip are the sampled-mode phase lengths.
	SampleDetailed uint64
	SampleSkip     uint64

	// Pred and VPred are branch- and value-predictor preset names ("" is
	// the baseline tournament and no value prediction). FetchRate throttles
	// fetch after low-confidence branches; 0 and 1 both mean full rate.
	Pred      string
	VPred     string
	FetchRate float64
}

// CheckMode rejects anything but the three modes, naming them.
func CheckMode(mode string) error {
	switch mode {
	case ModeSim, ModeSampled, ModeModel:
		return nil
	}
	return fmt.Errorf("unknown mode %q (want sim, sampled or model)", mode)
}

// Flags registers the run axes on fs with the defaults every command
// shares, writing into s.
func (s *Spec) Flags(fs *flag.FlagSet) {
	fs.StringVar(&s.Mode, "mode", ModeSim, "engine per grid point: sim (cycle-level), sampled (systematic sampling with confidence intervals), or model (analytic interval model)")
	fs.IntVar(&s.Insts, "insts", 1_000_000, "dynamic instructions per point")
	fs.Uint64Var(&s.Warmup, "warmup", 200_000, "warmup instructions per point (the initial functional skip in sampled mode)")
	fs.StringVar(&s.Pred, "pred", "", "branch predictor preset for every grid point (one of "+strings.Join(bpred.PresetNames(), ", ")+"; empty = baseline tournament)")
	fs.StringVar(&s.VPred, "vpred", "", "value predictor preset for every grid point (one of "+strings.Join(vpred.PresetNames(), ", ")+"; empty = no value speculation)")
	fs.Float64Var(&s.FetchRate, "fetchrate", 0, "fetch rate after low-confidence branches, in [0, 1] (0 and 1 = full rate, no throttling)")
	fs.Uint64Var(&s.SampleDetailed, "sample-detailed", 2_000, "instructions per detailed phase (-mode sampled)")
	fs.Uint64Var(&s.SampleSkip, "sample-skip", 18_000, "instructions functionally warmed between detailed phases (-mode sampled)")
}

// Validate reports the first axis a run cannot start with. Its messages are
// the admission errors of every surface, which add only their own prefix.
func (s Spec) Validate() error {
	mode := s.Mode
	if mode == "" {
		mode = ModeSim
	}
	if err := CheckMode(mode); err != nil {
		return err
	}
	switch {
	case s.Insts <= 0:
		return fmt.Errorf("insts must be positive, got %d", s.Insts)
	case s.Warmup >= uint64(s.Insts):
		return fmt.Errorf("warmup %d must be less than insts %d", s.Warmup, s.Insts)
	case mode == ModeSampled && (s.SampleDetailed == 0 || s.SampleSkip == 0):
		return fmt.Errorf("sampled mode needs positive sample phases, got detailed %d and skip %d", s.SampleDetailed, s.SampleSkip)
	case s.Decompose && mode != ModeSim:
		return fmt.Errorf("decompose requires sim mode, got %s", mode)
	}
	if _, ok := bpred.Preset(s.Pred); s.Pred != "" && !ok {
		return fmt.Errorf("unknown predictor preset %q (want one of %s)", s.Pred, strings.Join(bpred.PresetNames(), ", "))
	}
	if _, ok := vpred.Preset(s.VPred); s.VPred != "" && !ok {
		return fmt.Errorf("unknown value predictor preset %q (want one of %s)", s.VPred, strings.Join(vpred.PresetNames(), ", "))
	}
	if !(s.FetchRate >= 0 && s.FetchRate <= 1) { // also refuses NaN
		return fmt.Errorf("fetchrate %v outside [0, 1]", s.FetchRate)
	}
	return nil
}

// Canonical returns the one spelling of s's run: mode "" becomes sim, a
// predictor preset equal to the baseline's becomes "", and fetch rate 1
// becomes 0 (both are the full-rate frontend, byte for byte). Durable
// identities are built from canonical specs, so spellings of one run share
// one job and one store entry.
func (s Spec) Canonical() Spec {
	if s.Mode == "" {
		s.Mode = ModeSim
	}
	if p, ok := bpred.Preset(s.Pred); ok && p == uarch.Baseline().Pred {
		s.Pred = ""
	}
	if s.FetchRate == 1 {
		s.FetchRate = 0
	}
	return s
}

// Machine is the baseline machine under s's predictor, value predictor and
// fetch rate. The value predictor reads wc's value stream, so one preset
// means one run everywhere. s must have passed Validate: an unknown preset
// name leaves the baseline's component in place.
func (s Spec) Machine(wc workload.Config) uarch.Config {
	cfg := uarch.Baseline()
	if p, ok := bpred.Preset(s.Pred); ok {
		cfg.Pred = p
	}
	if p, ok := vpred.Preset(s.VPred); ok {
		p.Stream = wc.ValueStream()
		cfg.VPred = &p
	}
	cfg.FetchRate = s.FetchRate
	return cfg
}

// PointConfig is the (width, depth, rob) design point on base's predictor,
// value predictor and fetch rate: the processor every sweep surface runs at
// that grid point.
func PointConfig(base uarch.Config, width, depth, rob int) uarch.Config {
	cfg := experiments.Point(width, depth, rob)
	cfg.Pred, cfg.VPred, cfg.FetchRate = base.Pred, base.VPred, base.FetchRate
	return cfg
}
