package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/harness"
	"intervalsim/internal/overlay"
	"intervalsim/internal/report"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
)

// sweepSize fixes the inputs of one sweep invocation: instruction counts,
// sampling phases and the (width, depth, rob) grid. canonicalSize is
// cmd/sweep's default grid and sampling phases over a quarter of its
// default instruction counts; the self-test shrinks it further.
type sweepSize struct {
	insts                int
	warmup               uint64
	sampleDetailed       uint64
	sampleSkip           uint64
	widths, depths, robs []int
}

// A quarter of cmd/sweep's default 1M instructions (200k warmup) keeps a
// sweep-cycle pass near 2.2 s on a 2-core host, so a 30 s run times about
// ten passes and its medians hold against a shared host's bursts of
// slowness; at 1M a run timed two or three passes and two sets of runs of
// the same code differed by more than any allowed bound.
var canonicalSize = sweepSize{
	insts: 250_000, warmup: 50_000,
	sampleDetailed: 2_000, sampleSkip: 18_000,
	widths: []int{2, 4, 8}, depths: []int{3, 7, 11}, robs: []int{64, 128, 256},
}

// sweepBenches are the two suite benchmarks every sweep workload runs: mcf
// is dominated by long D-misses, crafty by branch mispredictions, so an
// optimisation aimed at one kind of miss interval has a benchmark with the
// property and one without.
var sweepBenches = []string{"mcf", "crafty"}

// simStats is what the checks and accuracy metrics need from one
// simulated point; the full uarch.Result (records, load levels) is dropped
// so a run's memory stays that of the sweep itself.
type simStats struct {
	Insts, Cycles          uint64
	Mispredicts, LongDMiss uint64
	Path, Fallback         string
	Sample                 *uarch.SampleStats
}

func (s simStats) cpi() float64 { return float64(s.Cycles) / float64(s.Insts) }

// pointOut is one design point's outcome.
type pointOut struct {
	cfg      uarch.Config
	row      []string
	sim      simStats      // sim and sampled modes
	modelCPI float64       // model mode
	dur      time.Duration // from a worker starting the point until its row is ready
}

// sweepOut is one sweep invocation: one benchmark in one mode, exactly
// what one `sweep -bench B -mode M` run computes and prints.
type sweepOut struct {
	bench, mode string
	csv         []byte
	setup, wall time.Duration
	points      []pointOut
	failed      int
}

// markPermanent marks the errors that retrying cannot fix, as cmd/sweep
// does: invalid configurations and watchdog trips are deterministic.
func markPermanent(err error) error {
	if errors.Is(err, uarch.ErrBadConfig) || errors.Is(err, uarch.ErrWatchdog) {
		return harness.Permanent(err)
	}
	return err
}

// sweepGrid enumerates the design points in canonical (width, depth, rob)
// order, each carrying base's speculation settings as cmd/sweep does.
func sweepGrid(sz sweepSize, base uarch.Config) []uarch.Config {
	var out []uarch.Config
	for _, w := range sz.widths {
		for _, d := range sz.depths {
			for _, r := range sz.robs {
				cfg := experiments.Point(w, d, r)
				cfg.Pred, cfg.VPred, cfg.FetchRate = base.Pred, base.VPred, base.FetchRate
				out = append(out, cfg)
			}
		}
	}
	return out
}

// runSweep performs one sweep invocation through the same public calls
// cmd/sweep makes, in the same order, from a cold start: a fresh trace and
// a fresh overlay cache, so every invocation pays its own set-up. Spans go
// to tr (nil: untraced) under run.
func runSweep(ctx context.Context, tr *Tracer, run string, in sweepInput, mode string, sz sweepSize, workers int) (*sweepOut, error) {
	out := &sweepOut{bench: in.wc.Name, mode: mode}
	start := time.Now()
	root := tr.Begin(run, "sweep", 0)
	defer tr.End(root)

	setup := tr.Begin(run, "setup", root)
	sp := tr.Begin(run, "trace.build", setup)
	soa, err := packTrace(in.wc, in.skip, sz.insts)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	base := uarch.Baseline()
	var ov *overlay.Overlay
	if mode != "sampled" {
		sp = tr.Begin(run, "overlay.compute", setup)
		ov, err = overlay.NewCache(1).GetSpec(soa, base.Pred, base.Mem, base.VPred)
		tr.End(sp)
		if err != nil {
			return nil, err
		}
	}
	points := sweepGrid(sz, base)
	var headers []string
	var trc *trace.Trace
	var set *core.ModelSet
	switch mode {
	case "sim":
		headers = []string{"width", "depth", "rob", "ipc", "avg_penalty",
			"penalty_frontend", "penalty_drain", "penalty_fu", "penalty_shortd", "penalty_longd"}
		sp = tr.Begin(run, "trace.unpack", setup)
		trc = soa.Unpack()
		tr.End(sp)
	case "sampled":
		headers = []string{"width", "depth", "rob", "ipc",
			"cpi", "cpi_lo", "cpi_hi", "cpi_rel_err", "units"}
	case "model":
		headers = []string{"width", "depth", "rob", "ipc", "avg_penalty",
			"cpi_base", "cpi_bpred", "cpi_icache", "cpi_longd"}
		sp = tr.Begin(run, "core.new_modelset", setup)
		set, err = core.NewModelSet(soa, ov, base, sz.robs[len(sz.robs)-1], sz.warmup, sz.insts)
		tr.End(sp)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown sweep mode %q", mode)
	}
	tr.End(setup)
	out.setup = time.Since(start)

	pool := tr.Begin(run, "harness.run", root)
	jobs := make([]harness.Job[pointOut], len(points))
	for i, cfg := range points {
		cfg := cfg
		jobs[i] = harness.Job[pointOut]{Name: cfg.Name, Run: func(ctx context.Context) (pointOut, error) {
			job := tr.Begin(run, "harness.job", pool)
			defer tr.End(job)
			t0 := time.Now()
			var p pointOut
			var err error
			switch mode {
			case "sim":
				p, err = simPoint(ctx, tr, run, job, soa, trc, ov, cfg, sz)
			case "sampled":
				p, err = sampledPoint(ctx, tr, run, job, soa, cfg, sz)
			default:
				p, err = modelPoint(tr, run, job, set, cfg)
			}
			p.dur = time.Since(t0)
			return p, err
		}}
	}
	results, _ := harness.Run(ctx, jobs, harness.Options{Workers: workers, KeepGoing: true})
	tr.End(pool)

	sp = tr.Begin(run, "report.csv", root)
	t := report.New("", headers...)
	for _, r := range results {
		if r.Err != nil {
			out.failed++
			continue
		}
		t.AddRow(r.Value.row...)
		out.points = append(out.points, r.Value)
	}
	var buf bytes.Buffer
	err = t.FprintCSV(&buf)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	out.csv = buf.Bytes()
	out.wall = time.Since(start)
	return out, nil
}

func simPoint(ctx context.Context, tr *Tracer, run string, job int, soa *trace.SoA, trc *trace.Trace, ov *overlay.Overlay, cfg uarch.Config, sz sweepSize) (pointOut, error) {
	p := pointOut{cfg: cfg}
	sp := tr.Begin(run, "uarch.sim", job)
	res, err := uarch.RunContext(ctx, soa.Reader(), cfg, uarch.Options{
		RecordMispredicts: true,
		RecordLoadLevels:  true,
		WarmupInsts:       sz.warmup,
		Overlay:           ov,
	})
	tr.End(sp)
	if err != nil {
		return p, markPermanent(err)
	}
	sp = tr.Begin(run, "core.decompose", job)
	dec, err := core.NewDecomposer(trc, res)
	if err != nil {
		tr.End(sp)
		return p, harness.Permanent(err)
	}
	m := core.Mean(dec.DecomposeAll())
	tr.End(sp)
	p.sim = statsOf(res)
	p.row = []string{
		fmt.Sprintf("%d", cfg.DispatchWidth), fmt.Sprintf("%d", cfg.FrontendDepth), fmt.Sprintf("%d", cfg.ROBSize),
		fmt.Sprintf("%.3f", res.IPC()),
		fmt.Sprintf("%.2f", m.Total),
		fmt.Sprintf("%.2f", m.Frontend),
		fmt.Sprintf("%.2f", m.BaseILP),
		fmt.Sprintf("%.2f", m.FULatency),
		fmt.Sprintf("%.2f", m.ShortDMiss),
		fmt.Sprintf("%.2f", m.LongDMiss),
	}
	return p, nil
}

func sampledPoint(ctx context.Context, tr *Tracer, run string, job int, soa *trace.SoA, cfg uarch.Config, sz sweepSize) (pointOut, error) {
	p := pointOut{cfg: cfg}
	sp := tr.Begin(run, "uarch.sampled", job)
	res, err := uarch.RunContext(ctx, soa.Reader(), cfg, uarch.Options{
		SampleStartSkip: sz.warmup,
		SampleDetailed:  sz.sampleDetailed,
		SampleSkip:      sz.sampleSkip,
	})
	tr.End(sp)
	if err != nil {
		return p, markPermanent(err)
	}
	st := res.Sample
	if st == nil {
		return p, harness.Permanent(fmt.Errorf("%s: sampled run carries no sample statistics", cfg.Name))
	}
	p.sim = statsOf(res)
	p.row = []string{
		fmt.Sprintf("%d", cfg.DispatchWidth), fmt.Sprintf("%d", cfg.FrontendDepth), fmt.Sprintf("%d", cfg.ROBSize),
		fmt.Sprintf("%.3f", res.IPC()),
		fmt.Sprintf("%.4f", st.CPI.Mean),
		fmt.Sprintf("%.4f", st.CPI.Lower),
		fmt.Sprintf("%.4f", st.CPI.Upper),
		fmt.Sprintf("%.4f", st.CPI.RelErr),
		fmt.Sprintf("%d", st.Units),
	}
	return p, nil
}

func modelPoint(tr *Tracer, run string, job int, set *core.ModelSet, cfg uarch.Config) (pointOut, error) {
	p := pointOut{cfg: cfg}
	sp := tr.Begin(run, "core.modelset_for", job)
	m, prof, err := set.For(cfg)
	tr.End(sp)
	if err != nil {
		return p, harness.Permanent(err)
	}
	sp = tr.Begin(run, "core.predict", job)
	defer tr.End(sp)
	pred, err := m.PredictCPI(prof)
	if err != nil {
		return p, harness.Permanent(err)
	}
	pen, err := modelPenalty(m, prof)
	if err != nil {
		return p, harness.Permanent(err)
	}
	insts := float64(pred.Insts)
	ipc := 0.0
	if cpi := pred.CPI(); cpi > 0 {
		ipc = 1 / cpi
	}
	p.modelCPI = pred.CPI()
	p.row = []string{
		fmt.Sprintf("%d", cfg.DispatchWidth), fmt.Sprintf("%d", cfg.FrontendDepth), fmt.Sprintf("%d", cfg.ROBSize),
		fmt.Sprintf("%.3f", ipc),
		fmt.Sprintf("%.2f", pen),
		fmt.Sprintf("%.3f", pred.Base/insts),
		fmt.Sprintf("%.3f", pred.Bpred/insts),
		fmt.Sprintf("%.3f", pred.ICache/insts),
		fmt.Sprintf("%.3f", pred.LongData/insts),
	}
	return p, nil
}

// modelPenalty is the model's mean misprediction penalty over the profiled
// interval structure, the aggregation cmd/sweep and the daemon report.
func modelPenalty(m *core.Model, prof *core.Profile) (float64, error) {
	ivs, err := core.Segment(prof.Events, prof.Insts)
	if err != nil {
		return 0, err
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
	return pen, nil
}

func statsOf(res *uarch.Result) simStats {
	return simStats{
		Insts: res.Insts, Cycles: res.Cycles,
		Mispredicts: res.Mispredicts, LongDMiss: res.LongDMisses,
		Path: res.Path, Fallback: res.Fallback, Sample: res.Sample,
	}
}
