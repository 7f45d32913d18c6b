// Command sweep explores the design space: it runs one benchmark over a
// grid of (dispatch width, frontend depth, ROB size) points and emits a CSV
// of IPC and misprediction-penalty statistics, ready for plotting. This is
// the "what if" harness interval analysis exists to support: the penalty
// columns show how the five contributors shift across the design space.
//
// Three engines are available. The default (-mode sim) runs the cycle-level
// simulator at every point, replaying branch-predictor and I-cache outcomes
// from a miss-event overlay computed once for the whole grid (the grid
// varies only timing parameters, so speculation outcomes are shared).
// -mode sampled runs SMARTS-style systematic sampling at every point
// (detailed phases with functional warming in between) and emits CPI with
// its confidence interval instead of the penalty decomposition — a fraction
// of the wall clock at quantified statistical precision. -mode model skips
// the detailed simulator entirely: it evaluates the analytic interval model
// at every point from the same shared overlay plus ILP characteristics
// profiled once per dispatch width — minutes of simulation become seconds of
// arithmetic, at the model's accuracy rather than the simulator's.
//
// Points run in parallel on a fail-soft worker pool: a design point that
// fails (or hangs past -timeout) is reported on stderr while every other
// point's CSV row is still emitted, in grid order, byte-identical to a
// serial run. The exit code is 0 only when every point succeeded. After the
// grid, stderr summarizes which simulator paths ran (generic, packed,
// overlay replay) and any fast-path fallbacks, so a sweep that silently
// degraded to a slower path is visible.
//
// Every point runs through internal/engine, the design-point executor the
// intervalsimd service also runs, and every row renders through
// engine.CSVRow, the renderer -endpoints uses for daemon results.
//
// Usage:
//
//	sweep [-bench crafty] [-mode sim|sampled|model] [-insts N] [-warmup N]
//	      [-pred P] [-vpred V] [-fetchrate R] [-sample-detailed N] [-sample-skip N]
//	      [-j N] [-timeout D] [-retries N] [-keep-going] [-endpoints host:port,...] [-version] > sweep.csv
//
// The run-axis flags (-mode through -sample-skip) come from engine.Spec,
// which also checks them: sweepctl, the cluster coordinator and the
// daemon's endpoints refuse a bad run with the same messages.
//
// Exit codes: 0 success, 1 runtime error or failed points, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"intervalsim/internal/cluster"
	"intervalsim/internal/engine"
	"intervalsim/internal/experiments"
	"intervalsim/internal/harness"
	"intervalsim/internal/overlay"
	"intervalsim/internal/report"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/version"
	"intervalsim/internal/workload"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// testPointHook, when non-nil, mutates each grid point's configuration just
// before simulation. Tests use it to inject deliberately broken design
// points and assert the fail-soft behavior.
var testPointHook func(cfg *uarch.Config)

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var spec engine.Spec
	spec.Flags(fs)
	bench := fs.String("bench", "crafty", "benchmark to sweep")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "design points simulated in parallel")
	keepGoing := fs.Bool("keep-going", true, "continue past failed design points (successful rows are always emitted)")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline per design point (0 = none)")
	retries := fs.Int("retries", 0, "retries per transiently failing point")
	endpoints := fs.String("endpoints", "", "comma-separated intervalsimd endpoints: shard the sweep across a fleet instead of simulating in-process (see sweepctl for full control)")
	showVersion := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, "sweep", version.String())
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "sweep: unexpected arguments %q\n", fs.Args())
		return 2
	}
	wc, ok := workload.SuiteConfig(*bench)
	if !ok {
		fmt.Fprintf(stderr, "sweep: unknown benchmark %q\n", *bench)
		return 2
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 2
	}
	// Sim rows always carry the penalty decomposition.
	spec = spec.Canonical()
	spec.Decompose = spec.Mode == engine.ModeSim
	if *endpoints != "" {
		return runCluster(stdout, stderr, *endpoints, *bench, spec, *timeout, *retries, *keepGoing)
	}
	err := run(context.Background(), stdout, stderr, wc, spec, harness.Options{
		Workers:   *jobs,
		Timeout:   *timeout,
		Retries:   *retries,
		KeepGoing: *keepGoing,
	})
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	return 0
}

// runCluster delegates the sweep to a fleet of intervalsimd daemons through
// the cluster coordinator. The grid and the CSV output are exactly the
// in-process sweep's; only the execution is distributed, so the bytes on
// stdout must not depend on which path ran.
func runCluster(stdout, stderr io.Writer, endpoints, bench string, spec engine.Spec, timeout time.Duration, retries int, keepGoing bool) int {
	var eps []string
	for _, ep := range strings.Split(endpoints, ",") {
		if ep = strings.TrimSpace(ep); ep != "" {
			eps = append(eps, ep)
		}
	}
	widths, depths, robs := experiments.DefaultGrid()
	sink := cluster.NewCSVSink(stdout, spec.Mode, false)
	stats, runErr := cluster.Run(context.Background(), cluster.Options{
		Endpoints:    eps,
		Benches:      []string{bench},
		Widths:       widths,
		Depths:       depths,
		ROBs:         robs,
		Spec:         spec,
		PointTimeout: timeout,
		Retries:      retries,
		KeepGoing:    keepGoing,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}, sink.Emit)
	if stats != nil {
		if err := sink.Finish(); err != nil && runErr == nil {
			runErr = err
		}
		stats.FprintSummary(stderr)
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "sweep:", runErr)
		return 1
	}
	return 0
}

// grid enumerates the design points on base in canonical (width, depth,
// rob) order — the order CSV rows are emitted in, regardless of execution
// schedule.
func grid(base uarch.Config) []uarch.Config {
	widths, depths, robs := experiments.DefaultGrid()
	var out []uarch.Config
	for _, width := range widths {
		for _, depth := range depths {
			for _, rob := range robs {
				cfg := engine.PointConfig(base, width, depth, rob)
				if testPointHook != nil {
					testPointHook(&cfg)
				}
				out = append(out, cfg)
			}
		}
	}
	return out
}

// pathTally counts which simulator execution paths the grid actually took,
// and any fast-path fallbacks, across concurrent points.
type pathTally struct {
	mu        sync.Mutex
	paths     map[string]int
	fallbacks map[string]int
}

func (pt *pathTally) note(res *uarch.Result) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.paths == nil {
		pt.paths = make(map[string]int)
		pt.fallbacks = make(map[string]int)
	}
	pt.paths[res.Path]++
	if res.Fallback != "" {
		pt.fallbacks[res.Fallback]++
	}
}

func (pt *pathTally) summarize(w io.Writer) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if len(pt.paths) == 0 {
		return
	}
	var parts []string
	for p, n := range pt.paths {
		parts = append(parts, fmt.Sprintf("%d×%s", n, p))
	}
	sort.Strings(parts)
	fmt.Fprintf(w, "sweep: simulator paths: %s\n", strings.Join(parts, ", "))
	var reasons []string
	for r := range pt.fallbacks {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(w, "sweep: %d× fallback: %s\n", pt.fallbacks[r], r)
	}
}

func run(ctx context.Context, stdout, stderr io.Writer, wc workload.Config, spec engine.Spec, hopts harness.Options) error {
	// Pack the trace once: every grid point reuses the struct-of-arrays
	// layout and its precomputed dependence metadata (the simulator's
	// index-based fast path), instead of re-decoding per configuration.
	soa, err := trace.PackReader(workload.MustNew(wc, spec.Insts))
	if err != nil {
		return err
	}

	// The grid varies only timing parameters — every point shares one
	// predictor (the -pred preset, or the baseline tournament) and cache
	// geometry — so one miss-event overlay serves the whole sweep. A point
	// whose speculation configuration diverges (e.g. via testPointHook) is
	// caught by the simulator's fingerprint check and falls back to live
	// simulation, which the path summary below makes visible.
	base := spec.Machine(wc)
	_, _, robs := experiments.DefaultGrid()
	exec, err := engine.New(spec, base, robs[len(robs)-1], soa, overlay.Shared.GetSpec)
	if err != nil {
		return err
	}

	points := grid(base)
	var tally pathTally
	jobs := make([]harness.Job[[]string], len(points))
	for i, cfg := range points {
		jobs[i] = harness.Job[[]string]{
			Name: cfg.Name,
			Run: func(ctx context.Context) ([]string, error) {
				res, err := exec.Run(ctx, cfg)
				if err != nil {
					return nil, err
				}
				if res.Sim != nil {
					tally.note(res.Sim)
				}
				return engine.CSVRow(spec.Mode, cfg.DispatchWidth, cfg.FrontendDepth, cfg.ROBSize, res), nil
			},
		}
	}

	results, runErr := harness.Run(ctx, jobs, hopts)

	// Fail-soft emission: every completed row, in grid order.
	t := report.New("", engine.CSVHeader(spec.Mode)...)
	for _, r := range results {
		if r.Err == nil {
			t.AddRow(r.Value...)
		}
	}
	if err := t.FprintCSV(stdout); err != nil {
		return err
	}
	harness.Summarize(stderr, results)
	tally.summarize(stderr)
	if hits, misses := overlay.Shared.Stats(); hits+misses > 0 {
		fmt.Fprintf(stderr, "sweep: overlay cache: %d hits, %d misses\n", hits, misses)
	}
	return runErr
}
