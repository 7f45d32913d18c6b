// Package service implements intervalsimd's simulation-as-a-service layer:
// an HTTP JSON API over the interval-analysis substrate. Requests name a
// workload (a built-in suite benchmark or an inline generator config) and a
// machine (baseline knob overrides or a full configuration); the service
// runs them on a bounded worker pool and shares the two expensive
// intermediate artifacts — packed trace.SoA traces and miss-event overlays
// — across all requests through single-flight memo caches, so a thousand
// config-sweep queries over one workload pay for one trace generation and
// one speculation pre-pass.
//
// Production posture: admission control (a full queue rejects with 429 +
// Retry-After instead of buffering unboundedly), per-request deadlines wired
// into the simulator's context-cancellation watchdog, panic containment via
// the harness, graceful drain on shutdown, streaming NDJSON for sweeps, and
// an observability surface (/healthz, /metrics) with cache counters and
// request-latency quantiles.
package service

import (
	"errors"
	"fmt"
	"time"

	"intervalsim/internal/engine"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// errBadRequest marks client errors: invalid JSON, unknown benchmarks,
// out-of-range sizes. Handlers map it to HTTP 400 and metrics count it
// under the bad_input outcome.
var errBadRequest = errors.New("service: bad request")

// MachineSpec selects the simulated machine: either knob overrides applied
// to the baseline design point (width/depth/rob, the axes every sweep in
// the repository uses, built by engine.PointConfig so a point means the
// same processor here and in cmd/sweep), or a complete uarch.Config for full
// control. Zero knobs inherit the baseline values. Pred swaps the branch
// predictor for a named preset (bpred.Preset: "tage", "2bc-gskew",
// "gshare", ...) on top of the knob axes; a full Config instead carries its
// predictor inline, so the two are mutually exclusive.
type MachineSpec struct {
	Width int    `json:"width,omitempty"`
	Depth int    `json:"depth,omitempty"`
	ROB   int    `json:"rob,omitempty"`
	Pred  string `json:"pred,omitempty"`
	// VPred enables value prediction with a named preset (vpred.Preset:
	// "last-value", "stride", "fcm"); the predictor's value stream is
	// resolved from the workload at admission. FetchRate in (0,1) enables
	// variable-rate fetch throttling on low branch confidence; 0 and 1 both
	// mean the classic full-rate frontend. Like Pred, both are knob-path
	// options and mutually exclusive with a full Config.
	VPred     string        `json:"vpred,omitempty"`
	FetchRate float64       `json:"fetchrate,omitempty"`
	Config    *uarch.Config `json:"config,omitempty"`
}

// resolve builds and validates the concrete configuration: the full Config
// as given, or the knob point on base, the run spec's machine.
func (m MachineSpec) resolve(base uarch.Config) (uarch.Config, error) {
	var cfg uarch.Config
	if m.Config != nil {
		if m.Width != 0 || m.Depth != 0 || m.ROB != 0 {
			return uarch.Config{}, fmt.Errorf("%w: give either knob overrides or a full config, not both", errBadRequest)
		}
		if m.Pred != "" {
			return uarch.Config{}, fmt.Errorf("%w: give either pred or a full config (which carries its own predictor), not both", errBadRequest)
		}
		if m.VPred != "" || m.FetchRate != 0 {
			return uarch.Config{}, fmt.Errorf("%w: give either vpred/fetchrate or a full config (which carries both fields), not both", errBadRequest)
		}
		cfg = *m.Config
		if cfg.Name == "" {
			cfg.Name = "custom"
		}
	} else {
		w, d, r := m.Width, m.Depth, m.ROB
		if w == 0 {
			w = base.DispatchWidth
		}
		if d == 0 {
			d = base.FrontendDepth
		}
		if r == 0 {
			r = base.ROBSize
		}
		cfg = engine.PointConfig(base, w, d, r)
	}
	if err := cfg.Validate(); err != nil {
		return uarch.Config{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return cfg, nil
}

// SimulateRequest asks for one cycle-level simulation. Exactly one of
// Benchmark (a suite name) or Workload (an inline generator config) selects
// the program.
type SimulateRequest struct {
	Benchmark string           `json:"benchmark,omitempty"`
	Workload  *workload.Config `json:"workload,omitempty"`
	Insts     int              `json:"insts,omitempty"`  // default 1,000,000
	Warmup    uint64           `json:"warmup,omitempty"` // instructions excluded from statistics
	Machine   MachineSpec      `json:"machine"`
	TimeoutMS int              `json:"timeout_ms,omitempty"` // per-job deadline override
}

// ModelRequest asks the analytic interval model for the same point — no
// cycle-level simulation, answered synchronously.
type ModelRequest = SimulateRequest

// spec maps the request's run axes onto the engine's run spec.
func (r *SimulateRequest) spec() engine.Spec {
	return engine.Spec{Insts: r.Insts, Warmup: r.Warmup, Pred: r.Machine.Pred, VPred: r.Machine.VPred, FetchRate: r.Machine.FetchRate}
}

// simInputs is a fully resolved, validated request.
type simInputs struct {
	wc      workload.Config
	spec    engine.Spec // canonical
	cfg     uarch.Config
	timeout time.Duration
}

// resolveSimulate validates req against the server's limits.
func (s *Server) resolveSimulate(req *SimulateRequest) (simInputs, error) {
	return s.resolveRun(req.Benchmark, req.Workload, req.spec(), req.Machine, req.TimeoutMS)
}

// resolveRun is the admission check every request shares: the workload,
// the run spec (engine.Spec.Validate, then the server's instruction
// limits), the machine and the timeout.
func (s *Server) resolveRun(bench string, wl *workload.Config, spec engine.Spec, m MachineSpec, timeoutMS int) (simInputs, error) {
	var in simInputs
	switch {
	case bench != "" && wl != nil:
		return in, fmt.Errorf("%w: give exactly one of benchmark or workload", errBadRequest)
	case bench != "":
		wc, ok := workload.SuiteConfig(bench)
		if !ok {
			return in, fmt.Errorf("%w: unknown benchmark %q", errBadRequest, bench)
		}
		in.wc = wc
	case wl != nil:
		if err := wl.Validate(); err != nil {
			return in, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		in.wc = *wl
	default:
		return in, fmt.Errorf("%w: give one of benchmark or workload", errBadRequest)
	}

	if spec.Insts == 0 {
		spec.Insts = 1_000_000
	}
	if err := spec.Validate(); err != nil {
		return in, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if spec.Insts < 1000 || spec.Insts > s.opts.MaxInsts {
		return in, fmt.Errorf("%w: insts %d outside [1000, %d]", errBadRequest, spec.Insts, s.opts.MaxInsts)
	}
	in.spec = spec.Canonical()

	cfg, err := m.resolve(in.spec.Machine(in.wc))
	if err != nil {
		return in, err
	}
	// A value predictor's stream is a property of the workload; a full
	// config that leaves Stream zero picks it up from the resolved workload
	// here, as presets do in Machine.
	if cfg.VPred != nil && cfg.VPred.Stream == (vpred.StreamConfig{}) {
		vp := *cfg.VPred
		vp.Stream = in.wc.ValueStream()
		cfg.VPred = &vp
	}
	in.cfg = cfg

	if timeoutMS < 0 {
		return in, fmt.Errorf("%w: negative timeout_ms", errBadRequest)
	}
	in.timeout = s.opts.DefaultTimeout
	if timeoutMS > 0 {
		in.timeout = time.Duration(timeoutMS) * time.Millisecond
		if in.timeout > s.opts.MaxTimeout {
			in.timeout = s.opts.MaxTimeout
		}
	}
	return in, nil
}

// SimulateResult is the JSON result of one cycle-level run: the aggregate
// statistics a characterization client consumes, plus the simulator path
// provenance so a silently degraded fast path is visible remotely too.
type SimulateResult struct {
	Benchmark string `json:"benchmark"`
	Machine   string `json:"machine"`

	Insts  uint64  `json:"insts"`
	Cycles uint64  `json:"cycles"`
	IPC    float64 `json:"ipc"`
	CPI    float64 `json:"cpi"`

	Mispredicts  uint64  `json:"mispredicts"`
	BranchMPKI   float64 `json:"branch_mpki"`
	ICacheMisses uint64  `json:"icache_misses"`
	ShortDMisses uint64  `json:"shortd_misses"`
	LongDMisses  uint64  `json:"longd_misses"`

	AvgMispredictPenalty float64 `json:"avg_mispredict_penalty"`

	Path     string `json:"path"`
	Fallback string `json:"fallback,omitempty"`
}

// newSimulateResult aggregates a uarch result into the API shape.
func newSimulateResult(in simInputs, res *uarch.Result) *SimulateResult {
	out := &SimulateResult{
		Benchmark:            in.wc.Name,
		Machine:              in.cfg.Name,
		Insts:                res.Insts,
		Cycles:               res.Cycles,
		IPC:                  res.IPC(),
		CPI:                  res.CPI(),
		Mispredicts:          res.Mispredicts,
		ICacheMisses:         res.ICacheMisses,
		ShortDMisses:         res.ShortDMisses,
		LongDMisses:          res.LongDMisses,
		AvgMispredictPenalty: res.AvgMispredictPenalty(),
		Path:                 res.Path,
		Fallback:             res.Fallback,
	}
	if res.Insts > 0 {
		out.BranchMPKI = float64(res.Mispredicts) / float64(res.Insts) * 1000
	}
	return out
}

// ModelResult is the analytic model's answer: the interval-analysis cycle
// stack and the predicted misprediction penalty, computed from the shared
// overlay with no cycle-level simulation.
type ModelResult struct {
	Benchmark string `json:"benchmark"`
	Machine   string `json:"machine"`

	Insts uint64  `json:"insts"`
	IPC   float64 `json:"ipc"`
	CPI   float64 `json:"cpi"`

	CPIBase     float64 `json:"cpi_base"`
	CPIBpred    float64 `json:"cpi_bpred"`
	CPIICache   float64 `json:"cpi_icache"`
	CPILongData float64 `json:"cpi_longd"`
	// CPIVMisspec is the value-misspeculation flush term, present only when
	// the machine value-predicts (omitempty keeps classic responses stable).
	CPIVMisspec float64 `json:"cpi_vmisspec,omitempty"`

	AvgMispredictPenalty float64 `json:"avg_mispredict_penalty"`
}

// SweepRequest asks for a grid of design points over one workload, streamed
// back as NDJSON (one SweepPoint per line, a SweepTrailer last). Empty axes
// default to the canonical cmd/sweep grid.
type SweepRequest struct {
	Benchmark string           `json:"benchmark,omitempty"`
	Workload  *workload.Config `json:"workload,omitempty"`
	Insts     int              `json:"insts,omitempty"`
	Warmup    uint64           `json:"warmup,omitempty"`
	Widths    []int            `json:"widths,omitempty"`
	Depths    []int            `json:"depths,omitempty"`
	ROBs      []int            `json:"robs,omitempty"`
	Pred      string           `json:"pred,omitempty"` // predictor preset for every point (default: baseline tournament)
	// VPred/FetchRate apply value prediction and variable-rate fetch to every
	// point, as in MachineSpec. Unknown presets and out-of-range rates are
	// rejected at admission.
	VPred     string  `json:"vpred,omitempty"`
	FetchRate float64 `json:"fetchrate,omitempty"`
	Mode      string  `json:"mode,omitempty"` // "sim" (default), "sampled", or "model"
	// SampleDetailed/SampleSkip are the systematic-sampling phase lengths
	// (sampled mode only; both must be positive). Warmup becomes the initial
	// functional skip of a sampled sweep.
	SampleDetailed uint64 `json:"sample_detailed,omitempty"`
	SampleSkip     uint64 `json:"sample_skip,omitempty"`
	TimeoutMS      int    `json:"timeout_ms,omitempty"` // per design point
}

// spec maps the request's run axes onto the engine's run spec.
func (r *SweepRequest) spec() engine.Spec {
	return engine.Spec{
		Mode: r.Mode, Insts: r.Insts, Warmup: r.Warmup,
		SampleDetailed: r.SampleDetailed, SampleSkip: r.SampleSkip,
		Pred: r.Pred, VPred: r.VPred, FetchRate: r.FetchRate,
	}
}

// SweepPoint is one NDJSON line of a sweep stream, emitted in completion
// order (Seq is the point's index in canonical grid order). Failed points
// carry Error and Outcome instead of measurements.
type SweepPoint struct {
	Seq   int `json:"seq"`
	Width int `json:"width"`
	Depth int `json:"depth"`
	ROB   int `json:"rob"`

	IPC                  float64 `json:"ipc,omitempty"`
	AvgMispredictPenalty float64 `json:"avg_mispredict_penalty,omitempty"`
	Cycles               uint64  `json:"cycles,omitempty"`
	CPIBase              float64 `json:"cpi_base,omitempty"`
	CPIBpred             float64 `json:"cpi_bpred,omitempty"`
	CPIICache            float64 `json:"cpi_icache,omitempty"`
	CPILongData          float64 `json:"cpi_longd,omitempty"`
	CPIVMisspec          float64 `json:"cpi_vmisspec,omitempty"`

	// Sampled-mode confidence interval: the ratio-estimator CPI over the
	// measurement units with its Student-t bounds (see uarch.SampleStats).
	CPI         float64 `json:"cpi,omitempty"`
	CPILo       float64 `json:"cpi_lo,omitempty"`
	CPIHi       float64 `json:"cpi_hi,omitempty"`
	CPIRelErr   float64 `json:"cpi_rel_err,omitempty"`
	SampleUnits int     `json:"sample_units,omitempty"`

	Path     string `json:"path,omitempty"`
	Fallback string `json:"fallback,omitempty"`

	Error   string `json:"error,omitempty"`
	Outcome string `json:"outcome,omitempty"`
}

// SweepTrailer is the final NDJSON line of a sweep stream: sweeps and
// batches share one streaming loop, and so one trailer.
type SweepTrailer = BatchTrailer
