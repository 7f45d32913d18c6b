// Package engine is the one design-point executor behind every sweep
// surface. The sweep command, the service's /v1/sweep, /v1/batch,
// /v1/sweepjobs, /v1/simulate and /v1/model endpoints, and (through
// /v1/batch) the cluster coordinator all answer "run this program on this
// (width, depth, ROB) machine" by calling Executor.Run, so a point means the
// same computation, and renders the same bytes, wherever it is asked.
//
// The package owns the run spec (spec.go: the run axes, their flags,
// admission rules, canonical spelling and machines) and the per-mode
// decisions: which simulator options a mode runs with, which shared
// artifacts it needs (an overlay except in sampled mode, a model set only in
// model mode), the penalty decomposition, and the sweep CSV's columns and
// format verbs (csv.go). Callers own where the packed trace and the overlay
// come from: the sweep command packs its own and uses the process-wide
// overlay cache, the daemon resolves both through its peer-filled caches.
package engine

import (
	"context"
	"errors"
	"fmt"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cache"
	"intervalsim/internal/core"
	"intervalsim/internal/harness"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
)

// The engines a point can run on.
const (
	// ModeSim runs the cycle-level simulator, replaying speculation outcomes
	// from the shared overlay.
	ModeSim = "sim"
	// ModeSampled runs SMARTS-style systematic sampling and reports CPI with
	// its confidence interval.
	ModeSampled = "sampled"
	// ModeModel evaluates the analytic interval model; nothing is simulated.
	ModeModel = "model"
)

// OverlayFunc resolves the miss-event overlay of soa under one speculation
// configuration; overlay.Cache.GetSpec has this shape.
type OverlayFunc func(soa *trace.SoA, pred bpred.Config, mem cache.HierarchyConfig, vp *vpred.Config) (*overlay.Overlay, error)

// Executor runs the design points of one sweep over shared artifacts. It is
// read-only after New, so concurrent Runs are safe.
type Executor struct {
	spec   Spec
	soa    *trace.SoA
	ov     *overlay.Overlay
	models *core.ModelSet
}

// New prepares the shared artifacts spec's points need over one packed
// trace. base fixes what every point shares: the predictor, value predictor
// and cache geometry the overlay is keyed on, and the latencies of the model
// set. maxROB is the largest ROB any point will request (model mode only).
func New(spec Spec, base uarch.Config, maxROB int, soa *trace.SoA, overlays OverlayFunc) (*Executor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e := &Executor{spec: spec, soa: soa}
	// Sampled runs bypass overlay replay by design (precomputed dependences
	// do not apply to fast-forwarded runs), so that mode never computes one.
	if spec.Mode == ModeSampled {
		return e, nil
	}
	ov, err := overlays(soa, base.Pred, base.Mem, base.VPred)
	if err != nil {
		return nil, err
	}
	e.ov = ov
	if spec.Mode == ModeModel {
		if e.models, err = core.NewModelSet(soa, ov, base, maxROB, spec.Warmup, spec.Insts); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Result is one design point's answer. Fields a mode does not produce stay
// zero, so a wire type whose fields are omitempty can copy every field.
type Result struct {
	IPC    float64
	Cycles uint64 // sim and sampled modes

	// AvgPenalty is the mean misprediction penalty: measured in sim mode
	// (the decomposition's mean total when decomposing), predicted by the
	// model in model mode.
	AvgPenalty float64
	// Penalty is the mean penalty decomposition (sim mode with Decompose).
	Penalty core.Breakdown

	// Stack is the model's predicted cycle stack per instruction, and
	// Prediction the whole-run stack it comes from (model mode).
	Stack      Stack
	Prediction core.CPIBreakdown

	// CPI is the ratio-estimator CPI with its confidence interval over Units
	// measurement units (sampled mode).
	CPI   uarch.Interval
	Units int

	// Path and Fallback are the simulator path provenance ("model" in model
	// mode), and Sim the simulator's full result (sim and sampled modes).
	Path     string
	Fallback string
	Sim      *uarch.Result
}

// Stack is a cycle stack in cycles per instruction.
type Stack struct {
	Base, Bpred, ICache, LongData, VMisspec float64
}

// Run executes one design point. Deterministic failures (a bad
// configuration, a watchdog trip, any model or decomposition error) are
// marked harness.Permanent, so a retrying caller spends no retries on them;
// the mark changes neither the message nor errors.Is.
func (e *Executor) Run(ctx context.Context, cfg uarch.Config) (Result, error) {
	switch e.spec.Mode {
	case ModeModel:
		r, err := e.model(cfg)
		return r, harness.Permanent(err)
	case ModeSampled:
		return e.sampled(ctx, cfg)
	default:
		return e.sim(ctx, cfg)
	}
}

// simulate runs the cycle-level simulator over a fresh reader of the shared
// packed trace; the SoA is read-only, so concurrent points are safe.
func (e *Executor) simulate(ctx context.Context, cfg uarch.Config, opts uarch.Options) (*uarch.Result, error) {
	res, err := uarch.RunContext(ctx, e.soa.Reader(), cfg, opts)
	if errors.Is(err, uarch.ErrBadConfig) || errors.Is(err, uarch.ErrWatchdog) {
		return nil, harness.Permanent(err)
	}
	return res, err
}

func (e *Executor) sim(ctx context.Context, cfg uarch.Config) (Result, error) {
	res, err := e.simulate(ctx, cfg, uarch.Options{
		RecordMispredicts: true,
		RecordLoadLevels:  e.spec.Decompose,
		WarmupInsts:       e.spec.Warmup,
		Overlay:           e.ov,
	})
	if err != nil {
		return Result{}, err
	}
	r := Result{
		IPC: res.IPC(), Cycles: res.Cycles, AvgPenalty: res.AvgMispredictPenalty(),
		Path: res.Path, Fallback: res.Fallback, Sim: res,
	}
	if e.spec.Decompose {
		dec, err := core.NewPackedDecomposer(e.soa, res)
		if err != nil {
			return Result{}, harness.Permanent(err)
		}
		r.Penalty = core.Mean(dec.DecomposeAll())
		r.AvgPenalty = r.Penalty.Total
	}
	return r, nil
}

func (e *Executor) sampled(ctx context.Context, cfg uarch.Config) (Result, error) {
	res, err := e.simulate(ctx, cfg, uarch.Options{
		SampleStartSkip: e.spec.Warmup,
		SampleDetailed:  e.spec.SampleDetailed,
		SampleSkip:      e.spec.SampleSkip,
	})
	if err != nil {
		return Result{}, err
	}
	st := res.Sample
	if st == nil {
		return Result{}, harness.Permanent(fmt.Errorf("%s: sampled run carries no sample statistics", cfg.Name))
	}
	return Result{
		IPC: res.IPC(), Cycles: res.Cycles, CPI: st.CPI, Units: st.Units,
		Path: res.Path, Fallback: res.Fallback, Sim: res,
	}, nil
}

// model evaluates the analytic model from the shared model set: the
// predicted cycle stack, and the mean model penalty over the profiled
// mispredict-terminated intervals.
func (e *Executor) model(cfg uarch.Config) (Result, error) {
	m, prof, err := e.models.For(cfg)
	if err != nil {
		return Result{}, err
	}
	pred, err := m.PredictCPI(prof)
	if err != nil {
		return Result{}, err
	}
	ivs, err := core.Segment(prof.Events, prof.Insts)
	if err != nil {
		return Result{}, err
	}
	var pen, n float64
	for _, iv := range ivs {
		if !iv.Final && iv.Kind == uarch.EvBranchMispredict {
			pen += m.MispredictPenalty(iv.Len() - 1)
			n++
		}
	}
	if n > 0 {
		pen /= n
	}
	insts := float64(pred.Insts)
	r := Result{
		AvgPenalty: pen,
		Stack: Stack{
			Base: pred.Base / insts, Bpred: pred.Bpred / insts, ICache: pred.ICache / insts,
			LongData: pred.LongData / insts, VMisspec: pred.VMisspec / insts,
		},
		Prediction: pred,
		Path:       "model",
	}
	if cpi := pred.CPI(); cpi > 0 {
		r.IPC = 1 / cpi
	}
	return r, nil
}
