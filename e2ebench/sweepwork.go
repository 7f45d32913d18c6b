package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// defaultSeed leaves the sweeps' inputs unchanged, so default-seed sweep
// output must equal what `sweep -bench B` prints.
const defaultSeed = 1

// sweepInput is one benchmark's input to a sweep: the suite configuration
// and the region of its execution that is simulated.
type sweepInput struct {
	wc   workload.Config
	skip int // instructions executed and discarded before the region
}

// seededInput picks, from the benchmark seed, which region of the suite
// benchmark's execution a sweep simulates: another dynamic instruction
// stream of the same program, as another simulation point of the same
// binary would be. Re-seeding the configuration instead would build
// another program, and its cost moves with it (mcf's CPI spans 3.1 to 5.0
// over seeds 11-40, and a sweep's wall time follows), more than any
// regression bound allows; regions of one program differ far less. The
// skipped instructions are generated inside the timed set-up, so the skip
// stays within the region's own length (12.5k to 250k instructions): a skip
// of up to 1M made setup_s follow the seed more than the code.
func seededInput(bench string, seed int64) (sweepInput, error) {
	wc, ok := workload.SuiteConfig(bench)
	if !ok {
		return sweepInput{}, fmt.Errorf("unknown suite benchmark %q", bench)
	}
	in := sweepInput{wc: wc}
	if seed != defaultSeed {
		in.skip = int(splitmix(uint64(seed))%20+1) * 12_500
	}
	return in, nil
}

// packTrace builds the trace of insts instructions of wc that follow its
// first skip, and packs it.
func packTrace(wc workload.Config, skip, insts int) (*trace.SoA, error) {
	gen, err := workload.New(wc, skip+insts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < skip; i++ {
		if _, err := gen.Next(); err != nil {
			return nil, err
		}
	}
	return trace.PackReader(gen)
}

// splitmix is the SplitMix64 finaliser, a bijective bit mixer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sweepPass is one timed pass of a sweep workload: every benchmark in every
// timed mode, each invocation cold.
type sweepPass struct {
	traced           bool
	sweeps           []*sweepOut
	wall, setup, cpu float64 // seconds
	rssMB            float64 // peak RSS during the pass
	allocMB          float64
	gcCycles         float64
}

func runSweepPass(ctx context.Context, tr *Tracer, pass int, inputs []sweepInput, modes []string, sz sweepSize, workers int) (*sweepPass, error) {
	p := &sweepPass{traced: tr != nil}
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	for _, in := range inputs {
		for _, mode := range modes {
			s, err := runSweep(ctx, tr, fmt.Sprintf("p%d.%s.%s", pass, in.wc.Name, mode), in, mode, sz, workers)
			if err != nil {
				return nil, fmt.Errorf("%s %s sweep: %w", in.wc.Name, mode, err)
			}
			p.sweeps = append(p.sweeps, s)
			p.setup += s.setup.Seconds()
		}
	}
	p.wall = time.Since(start).Seconds()
	p.cpu = cpuSeconds() - cpu0
	var err error
	if p.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	p.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	return p, nil
}

// sweepWorkload names the modes a sweep workload times. A traced run also
// computes the other modes untimed afterwards, as the reference the
// accuracy metrics need.
type sweepWorkload struct {
	timed, reference []string
}

var sweepWorkloads = map[string]sweepWorkload{
	"sweep-cycle": {timed: []string{"sim", "sampled"}, reference: []string{"model"}},
	"sweep-model": {timed: []string{"model"}, reference: []string{"sim", "sampled"}},
}

// sweepEnv is what a sweep workload needs beyond its sizing.
type sweepEnv struct {
	seed     int64
	budget   time.Duration
	traced   bool
	workers  int
	sweepBin string // the cmd/sweep binary for the default-seed comparison; "" skips it
}

// runSweepWorkload runs one untimed warm-up pass, then timed passes until
// the budget is spent, at least two; a traced run alternates traced and
// untraced passes. Then it checks every output, the warm-up pass's too,
// and derives the metrics from the timed passes.
func runSweepWorkload(ctx context.Context, w sweepWorkload, sz sweepSize, env sweepEnv) (*outcome, error) {
	var inputs []sweepInput
	for _, b := range sweepBenches {
		in, err := seededInput(b, env.seed)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}
	out := newOutcome()
	var passes, untraced, traced []*sweepPass
	var tracer *Tracer
	if env.traced {
		tracer = newTracer()
	}
	// Pass 0 warms the process up (heap growth, page faults, code paths the
	// first pass alone pays for); the budget starts after it.
	var start time.Time
	for i := 0; i < 3 || time.Since(start) < env.budget; i++ {
		var tr *Tracer
		if env.traced && i%2 == 1 {
			tr = tracer
		}
		p, err := runSweepPass(ctx, tr, i, inputs, w.timed, sz, env.workers)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		switch {
		case i == 0:
			start = time.Now()
		case p.traced:
			traced = append(traced, p)
		default:
			untraced = append(untraced, p)
		}
	}

	final := passes[len(passes)-1].sweeps
	if env.traced {
		for _, in := range inputs {
			for _, mode := range w.reference {
				s, err := runSweep(ctx, nil, "ref", in, mode, sz, env.workers)
				if err != nil {
					return nil, fmt.Errorf("%s %s reference sweep: %w", in.wc.Name, mode, err)
				}
				final = append(final, s)
			}
		}
	}

	for _, p := range passes {
		for _, s := range p.sweeps {
			out.attempted += len(s.points) + s.failed
			out.failed += s.failed
		}
	}
	out.check("deterministic", checkDeterministic(passes))
	for i, in := range inputs {
		name := in.wc.Name
		pick := int(splitmix(uint64(env.seed)+uint64(i)) % uint64(len(sz.widths)*len(sz.depths)*len(sz.robs)))
		if s := find(final, name, "sim"); s != nil {
			out.check("overlay-path-"+name, checkOverlayPath(s))
			out.check("live-resim-"+name, checkLiveResim(ctx, in, sz, s, pick))
		}
		if s := find(final, name, "model"); s != nil {
			out.check("model-fresh-set-"+name, checkFreshModel(in, sz, s, pick))
		}
	}
	if env.seed == defaultSeed && env.sweepBin != "" {
		for _, s := range final {
			out.check("sweep-cli-"+s.bench+"-"+s.mode, checkAgainstCLI(env.sweepBin, s, sz))
		}
	}
	for _, s := range final {
		out.digests[s.bench+"."+s.mode] = digest(s.csv)
	}

	pickMedian := func(ps []*sweepPass, f func(*sweepPass) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	// A request is one grid point: the harness job that simulates or models
	// it, from a worker starting it until its CSV row is ready. A pass has
	// a hundred of them (an invocation only four), so the latency
	// percentiles rest on a thousand samples a run.
	var lat []float64
	npts := 0
	for _, p := range untraced {
		for _, s := range p.sweeps {
			for _, pt := range s.points {
				lat = append(lat, pt.dur.Seconds())
			}
		}
	}
	for _, s := range untraced[0].sweeps {
		npts += len(s.points) + s.failed
	}
	wall := pickMedian(untraced, func(p *sweepPass) float64 { return p.wall })
	cpu := pickMedian(untraced, func(p *sweepPass) float64 { return p.cpu })
	out.e2e = map[string]metric{
		"setup_s":      {pickMedian(untraced, func(p *sweepPass) float64 { return p.setup }), "s"},
		"wall_s":       {wall, "s"},
		"cpu_s":        {cpu, "s"},
		"peak_rss_mb":  {pickMedian(untraced, func(p *sweepPass) float64 { return p.rssMB }), "MB"},
		"points_per_s": {pickMedian(untraced, func(p *sweepPass) float64 { return float64(npts) / (p.wall - p.setup) }), "points/s"},
		"req_per_s":    {pickMedian(untraced, func(p *sweepPass) float64 { return float64(npts) / p.wall }), "req/s"},
		"req_p50_ms":   {median(lat) * 1e3, "ms"},
		"req_p99_ms":   {quantile(lat, 0.99) * 1e3, "ms"},
		"ok_ratio":     {float64(out.attempted-out.failed) / float64(out.attempted), "ratio"},
	}
	out.info["passes"] = len(passes)
	out.info["warmup_passes"] = 1
	walls := make([]float64, len(untraced))
	for i, p := range untraced {
		walls[i] = p.wall
	}
	out.info["pass_wall_s"] = walls
	out.info["points_per_pass"] = npts
	out.info["latency_samples"] = len(lat)
	out.info["p99_samples_beyond"] = int(float64(len(lat)) * 0.01)

	if env.traced {
		spans := tracer.Spans()
		out.spans = spans
		out.layers = sweepLayerMetrics(spans, traced, sz, env.workers)
		n := float64(len(traced))
		for _, name := range []string{"trace.build", "trace.unpack", "overlay.compute", "core.decompose", "core.modelset_for", "core.predict", "report.csv"} {
			out.layers[name+"_s"] = metric{selfSum(spans, name) / n, "s"}
		}
		out.layers["uarch.sim_s"] = metric{selfSum(spans, "uarch.sim") / n, "s"}
		out.layers["uarch.sampled_s"] = metric{selfSum(spans, "uarch.sampled") / n, "s"}
		out.layers["harness.cpu_util"] = metric{cpu / (wall * float64(runtime.GOMAXPROCS(0))), "ratio"}
		out.layers["tracing.overhead_s"] = metric{pickMedian(traced, func(p *sweepPass) float64 { return p.wall }) - wall, "s"}
		for k, v := range sweepAccuracy(sweepBenches, final) {
			out.layers[k] = v
		}
	}
	return out, nil
}

// sweepAccuracy compares the sampled and model CPIs with the cycle-level
// simulator's at every grid point, and reports the workload properties
// (long D-misses and mispredictions per kilo-instruction) of each benchmark.
func sweepAccuracy(benches []string, final []*sweepOut) map[string]metric {
	m := map[string]metric{}
	var sErr, cover, mErr []float64
	for _, b := range benches {
		sim := byName(find(final, b, "sim"))
		for name, p := range byName(find(final, b, "sampled")) {
			ref := sim[name].sim.cpi()
			sErr = append(sErr, abs(p.sim.Sample.CPI.Mean-ref)/ref)
			cover = append(cover, b2f(p.sim.Sample.CPI.Covers(ref)))
		}
		for name, p := range byName(find(final, b, "model")) {
			ref := sim[name].sim.cpi()
			mErr = append(mErr, abs(p.modelCPI-ref)/ref)
		}
		var longd, mispred, insts uint64
		for _, p := range sim {
			longd += p.sim.LongDMiss
			mispred += p.sim.Mispredicts
			insts += p.sim.Insts
		}
		m["uarch.longd_pki."+b] = metric{1000 * float64(longd) / float64(insts), "1/kinst"}
		m["uarch.mispredict_pki."+b] = metric{1000 * float64(mispred) / float64(insts), "1/kinst"}
	}
	m["uarch.sampled_cpi_err"] = metric{mean(sErr), "ratio"}
	m["uarch.sampled_ci_coverage"] = metric{mean(cover), "ratio"}
	m["core.model_cpi_err"] = metric{mean(mErr), "ratio"}
	return m
}

// sweepLayerMetrics derives the uarch, harness and go layer metrics of the
// traced passes from their spans and counters.
func sweepLayerMetrics(spans []Span, traced []*sweepPass, sz sweepSize, workers int) map[string]metric {
	n := float64(len(traced))
	m := map[string]metric{}
	// Simulator throughput per benchmark: instructions simulated (warmup
	// included) over the uarch.sim busy time of that benchmark's points.
	for _, b := range sweepBenches {
		busy, pts := 0.0, 0
		for _, s := range spans {
			if s.Name == "uarch.sim" && runBench(s.Run) == b {
				busy += s.Self
				pts++
			}
		}
		v := 0.0
		if busy > 0 {
			v = float64(pts) * float64(sz.insts) / busy / 1e6
		}
		m["uarch.sim_minst_per_s."+b] = metric{v, "Minst/s"}
	}
	pt := append(durations(spans, "uarch.sim"), durations(spans, "uarch.sampled")...)
	m["uarch.point_p50_ms"] = metric{median(pt) * 1e3, "ms"}
	m["uarch.point_tail_ms"] = metric{tail(pt) * 1e3, "ms"}

	var cycles, fallbacks, idle, alloc, gcs float64
	for _, p := range traced {
		for _, s := range p.sweeps {
			for _, pt := range s.points {
				if s.mode == "sim" {
					cycles += float64(pt.sim.Cycles)
				}
				if pt.sim.Fallback != "" {
					fallbacks++
				}
			}
		}
		alloc += p.allocMB
		gcs += p.gcCycles
	}
	// Idle worker time: workers × pool wall minus the jobs' busy time.
	jobs := map[int]float64{}
	for _, s := range spans {
		if s.Name == "harness.job" {
			jobs[s.Parent] += s.Dur()
		}
	}
	for _, s := range spans {
		if s.Name == "harness.run" {
			idle += float64(workers)*s.Dur() - jobs[s.ID]
		}
	}
	m["uarch.sim_cycles"] = metric{cycles / n, "cycles"}
	m["uarch.fallbacks"] = metric{fallbacks / n, "count"}
	m["harness.idle_s"] = metric{idle / n, "s"}
	m["go.alloc_mb"] = metric{alloc / n, "MB"}
	m["go.gc_cycles"] = metric{gcs / n, "count"}
	return m
}

// runBench extracts the benchmark from a sweep span's run label
// ("p<pass>.<bench>.<mode>").
func runBench(run string) string {
	if parts := strings.Split(run, "."); len(parts) == 3 {
		return parts[1]
	}
	return ""
}

func find(ss []*sweepOut, bench, mode string) *sweepOut {
	for _, s := range ss {
		if s.bench == bench && s.mode == mode {
			return s
		}
	}
	return nil
}

func byName(s *sweepOut) map[string]pointOut {
	m := map[string]pointOut{}
	if s != nil {
		for _, p := range s.points {
			m[p.cfg.Name] = p
		}
	}
	return m
}

// checkDeterministic requires every pass to print the same CSV bytes for
// each (benchmark, mode), whatever the worker schedule or tracing.
func checkDeterministic(passes []*sweepPass) error {
	for _, p := range passes[1:] {
		for i, s := range p.sweeps {
			if !bytes.Equal(s.csv, passes[0].sweeps[i].csv) {
				return fmt.Errorf("%s %s: CSV differs between passes", s.bench, s.mode)
			}
		}
	}
	return nil
}

// checkOverlayPath requires every point of a sim sweep to have replayed
// the overlay with no fast-path fallback.
func checkOverlayPath(s *sweepOut) error {
	for _, p := range s.points {
		if p.sim.Path != "soa+overlay" || p.sim.Fallback != "" {
			return fmt.Errorf("%s %s: path %q fallback %q, want soa+overlay with none", s.bench, p.cfg.Name, p.sim.Path, p.sim.Fallback)
		}
	}
	return nil
}

// checkLiveResim re-simulates point idx of a sim sweep live, without the
// overlay, from a freshly built trace: replay must be cycle-exact.
func checkLiveResim(ctx context.Context, in sweepInput, sz sweepSize, s *sweepOut, idx int) error {
	if idx >= len(s.points) {
		return fmt.Errorf("%s: no sim point %d to re-simulate", s.bench, idx)
	}
	soa, err := packTrace(in.wc, in.skip, sz.insts)
	if err != nil {
		return err
	}
	p := s.points[idx]
	res, err := uarch.RunContext(ctx, soa.Reader(), p.cfg, uarch.Options{
		RecordMispredicts: true,
		RecordLoadLevels:  true,
		WarmupInsts:       sz.warmup,
	})
	if err != nil {
		return err
	}
	if res.Fallback != "" || res.Path == "soa+overlay" {
		return fmt.Errorf("%s %s: live re-simulation took path %q (fallback %q)", s.bench, p.cfg.Name, res.Path, res.Fallback)
	}
	if res.Cycles != p.sim.Cycles || res.Insts != p.sim.Insts {
		return fmt.Errorf("%s %s: live %d cycles / %d insts, replayed %d / %d",
			s.bench, p.cfg.Name, res.Cycles, res.Insts, p.sim.Cycles, p.sim.Insts)
	}
	return nil
}

// checkFreshModel re-evaluates point idx of a model sweep with a fresh
// model set that sees only that point: the characteristics a set shares
// across the grid must not depend on which points came first.
func checkFreshModel(in sweepInput, sz sweepSize, s *sweepOut, idx int) error {
	if idx >= len(s.points) {
		return fmt.Errorf("%s: no model point %d to re-evaluate", s.bench, idx)
	}
	soa, err := packTrace(in.wc, in.skip, sz.insts)
	if err != nil {
		return err
	}
	base := uarch.Baseline()
	ov, err := overlay.ComputeSpec(soa, base.Pred, base.Mem, base.VPred)
	if err != nil {
		return err
	}
	set, err := core.NewModelSet(soa, ov, base, sz.robs[len(sz.robs)-1], sz.warmup, sz.insts)
	if err != nil {
		return err
	}
	want := s.points[idx]
	got, err := modelPoint(nil, "", 0, set, want.cfg)
	if err != nil {
		return err
	}
	if got.modelCPI != want.modelCPI || strings.Join(got.row, ",") != strings.Join(want.row, ",") {
		return fmt.Errorf("%s %s: fresh model set gives CPI %v (%v), the sweep %v (%v)",
			s.bench, want.cfg.Name, got.modelCPI, got.row, want.modelCPI, want.row)
	}
	return nil
}

// checkAgainstCLI requires the CSV to be byte-identical to what the sweep
// command prints for the same benchmark, mode and sizing.
func checkAgainstCLI(bin string, s *sweepOut, sz sweepSize) error {
	args := []string{"-bench", s.bench, "-mode", s.mode,
		"-insts", fmt.Sprint(sz.insts), "-warmup", fmt.Sprint(sz.warmup),
		"-sample-detailed", fmt.Sprint(sz.sampleDetailed), "-sample-skip", fmt.Sprint(sz.sampleSkip)}
	cmd := exec.Command(filepath.Clean(bin), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("sweep %v: %v: %s", args, err, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), s.csv) {
		return fmt.Errorf("%s %s: CSV differs from `sweep %v`", s.bench, s.mode, args)
	}
	return nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
