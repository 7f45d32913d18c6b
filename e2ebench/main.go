// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time budget, checks that every output is correct,
// and prints one JSON result line: the end-to-end metrics of an untraced
// run (--trace 0), or the per-layer metrics of a traced run (--trace 1).
// See README.md in this directory for the workloads, the metrics and how a
// layer's numbers map onto the end-to-end ones.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash e2ebench/run.sh --workload sweep-cycle|sweep-model|daemon-mix --seed N --seconds S --trace 0|1
//
// Exit codes: 0 when every check passed, 1 when a check failed or the run
// could not complete, 2 on a usage error.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	checks            []string // "name: ok" or "name: FAILED: reason"
	bad               int
	digests           map[string]string
	info              map[string]any
	e2e               map[string]metric
	layers            map[string]metric
	spans             []Span
}

func newOutcome() *outcome {
	return &outcome{digests: map[string]string{}, info: map[string]any{}, layers: map[string]metric{}}
}

// check records the result of one correctness check.
func (o *outcome) check(name string, err error) {
	if err != nil {
		o.bad++
		o.checks = append(o.checks, name+": FAILED: "+err.Error())
		return
	}
	o.checks = append(o.checks, name+": ok")
}

// endToEnd lists the end-to-end metrics every workload reports, in the
// order BENCHMARK.json declares them.
var endToEnd = []string{
	"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "points_per_s", "req_per_s",
	"req_p50_ms", "req_p99_ms", "ok_ratio",
}

// perLayer lists the per-layer metrics every traced run reports, with their
// units. A layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"trace.build_s", "s"},
	{"trace.unpack_s", "s"},
	{"overlay.compute_s", "s"},
	{"overlay.hit_ratio", "ratio"},
	{"trace_cache.hit_ratio", "ratio"},
	{"uarch.sim_s", "s"},
	{"uarch.sampled_s", "s"},
	{"uarch.sim_minst_per_s.mcf", "Minst/s"},
	{"uarch.sim_minst_per_s.crafty", "Minst/s"},
	{"uarch.point_p50_ms", "ms"},
	{"uarch.point_tail_ms", "ms"},
	{"uarch.sim_cycles", "cycles"},
	{"uarch.fallbacks", "count"},
	{"uarch.longd_pki.mcf", "1/kinst"},
	{"uarch.longd_pki.crafty", "1/kinst"},
	{"uarch.mispredict_pki.mcf", "1/kinst"},
	{"uarch.mispredict_pki.crafty", "1/kinst"},
	{"uarch.sampled_cpi_err", "ratio"},
	{"uarch.sampled_ci_coverage", "ratio"},
	{"core.decompose_s", "s"},
	{"core.modelset_for_s", "s"},
	{"core.predict_s", "s"},
	{"core.model_cpi_err", "ratio"},
	{"harness.idle_s", "s"},
	{"harness.cpu_util", "ratio"},
	{"report.csv_s", "s"},
	{"service.model.p50_ms", "ms"},
	{"service.model.tail_ms", "ms"},
	{"service.simulate.p50_ms", "ms"},
	{"service.simulate.tail_ms", "ms"},
	{"service.batch.p50_ms", "ms"},
	{"service.batch.tail_ms", "ms"},
	{"service.sweepjob.p50_ms", "ms"},
	{"service.sweepjob.tail_ms", "ms"},
	{"service.repeat.p50_ms", "ms"},
	{"service.repeat.tail_ms", "ms"},
	{"service.warm.p50_ms", "ms"},
	{"service.warm.tail_ms", "ms"},
	{"service.cold.p50_ms", "ms"},
	{"service.cold.tail_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.rejected", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.puts", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"tracing.overhead_s", "s"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string // repository checkout the program is built from
	bin      string // directory holding the built intervalsimd and sweep binaries
	workers  int
	clients  int
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var o options
	fset.StringVar(&o.workload, "workload", "", "workload: sweep-cycle, sweep-model or daemon-mix")
	fset.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; the default leaves the suite benchmarks unchanged")
	fset.IntVar(&o.seconds, "seconds", 10, "measurement budget in seconds")
	fset.IntVar(&o.trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	fset.StringVar(&o.root, "root", ".", "repository root")
	fset.StringVar(&o.bin, "bin", ".bench_build/e2ebench/bin", "directory of the built intervalsimd and sweep binaries")
	fset.IntVar(&o.workers, "workers", runtime.NumCPU(), "sweep workers and daemon workers (at most nproc)")
	fset.IntVar(&o.clients, "clients", runtime.NumCPU(), "daemon-mix closed-loop clients (at most nproc)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	nproc := runtime.NumCPU()
	switch {
	case o.seconds < 1:
		fmt.Fprintln(stderr, "e2ebench: --seconds must be at least 1")
		return 2
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	case o.workers < 1 || o.workers > nproc:
		fmt.Fprintf(stderr, "e2ebench: --workers %d outside [1, nproc=%d]\n", o.workers, nproc)
		return 2
	case o.clients < 1 || o.clients > nproc:
		fmt.Fprintf(stderr, "e2ebench: --clients %d outside [1, nproc=%d]\n", o.clients, nproc)
		return 2
	}

	ctx := context.Background()
	steal0, calib0 := stealSeconds(), calibrationMS()
	budget := time.Duration(o.seconds) * time.Second
	var out *outcome
	var err error
	if w, ok := sweepWorkloads[o.workload]; ok {
		out, err = runSweepWorkload(ctx, w, canonicalSize, sweepEnv{
			seed: o.seed, budget: budget, traced: o.trace == 1, workers: o.workers,
			sweepBin: filepath.Join(o.bin, "sweep"),
		})
	} else if o.workload == "daemon-mix" {
		out, err = runDaemonWorkload(ctx, canonicalMix, daemonEnv{
			seed: o.seed, budget: budget, traced: o.trace == 1, workers: o.workers, clients: o.clients,
			daemonBin: filepath.Join(o.bin, "intervalsimd"),
			runDir:    filepath.Join(o.root, ".bench_build", "e2ebench", "run"),
		})
	} else {
		fmt.Fprintf(stderr, "e2ebench: unknown --workload %q (want sweep-cycle, sweep-model or daemon-mix)\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}

	if o.trace == 1 {
		rel := filepath.Join(".bench_build", "e2ebench", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(filepath.Join(o.root, rel), out.spans); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		out.info["spans"] = map[string]any{"file": rel, "count": len(out.spans)}
	}
	for _, c := range out.checks {
		fmt.Fprintln(stderr, "e2ebench: check", c)
	}
	info := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": hostInfo(o.root), "checks": out.checks, "digests": out.digests,
	}
	for k, v := range out.info {
		info[k] = v
	}
	info["calibration_ms"] = []float64{calib0, calibrationMS()}
	if steal0 >= 0 {
		info["host_steal_s"] = stealSeconds() - steal0
	}
	if err := json.NewEncoder(stdout).Encode(info); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: out.bad == 0 && out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if o.trace == 0 {
		for _, name := range endToEnd {
			m, ok := out.e2e[name]
			if !ok {
				fmt.Fprintf(stderr, "e2ebench: workload did not measure %s\n", name)
				return 1
			}
			res.Metrics[name] = m
		}
	} else {
		for _, l := range perLayer {
			m := out.layers[l.name]
			m.Unit = l.unit
			res.Metrics[l.name] = m
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "e2ebench: %s is %v\n", name, m.Value)
			res.Correct = false
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// hostInfo records where a result was measured: cores, GOMAXPROCS, the Go
// version and the commit. A checkout without git metadata is identified by
// a SHA-256 over its Go sources and module files instead.
func hostInfo(root string) map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	// Only the checkout's own .git counts: git would otherwise report the
	// commit of any repository the checkout happens to sit inside.
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		h["commit"] = "source-sha256:" + sourceDigest(root)
	} else if rev, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h["commit"] = strings.TrimSpace(string(rev))
	} else {
		h["commit"] = "source-sha256:" + sourceDigest(root)
	}
	return h
}

// sourceDigest hashes every .go, go.mod and go.sum file under root, in path
// order, skipping hidden directories (build output lives in one).
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			if rel, err := filepath.Rel(root, p); err == nil {
				paths = append(paths, rel)
			}
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(filepath.Join(root, p))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
