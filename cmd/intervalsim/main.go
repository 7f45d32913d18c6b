// Command intervalsim runs one cycle-level simulation and prints the
// interval-analysis view of it: performance, the miss-event population,
// interval statistics, and the five-way misprediction penalty decomposition.
//
// The input is either a built-in synthetic benchmark (-bench, see
// tracegen -list) or a binary trace file (-trace, produced by tracegen).
//
// Usage:
//
//	intervalsim -bench gcc [-insts N] [-warmup N] [-depth L] [-rob N] [-pred kind]
//	intervalsim -trace gcc.ivtr
//
// Exit codes follow the repository convention: 0 success, 1 runtime error,
// 2 usage error. Every error path prints a single-line "intervalsim: ..."
// message to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"intervalsim/internal/core"
	"intervalsim/internal/report"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/version"
	"intervalsim/internal/workload"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// fail prints the single-line error message every exit path uses.
func fail(stderr io.Writer, err error) {
	msg := strings.ReplaceAll(err.Error(), "\n", " ")
	fmt.Fprintf(stderr, "intervalsim: %s\n", msg)
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("intervalsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "", "built-in benchmark name")
	traceFile := fs.String("trace", "", "binary trace file")
	insts := fs.Int("insts", 1_000_000, "dynamic instructions (generator input only)")
	warmup := fs.Uint64("warmup", 100_000, "instructions excluded from statistics")
	depth := fs.Int("depth", 0, "override frontend pipeline depth")
	rob := fs.Int("rob", 0, "override ROB size")
	pred := fs.String("pred", "", "override predictor kind (perfect|taken|not-taken|bimodal|gshare|local|tournament|perceptron)")
	topBranches := fs.Int("topbranches", 0, "also list the N costliest static branches")
	showVersion := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, "intervalsim", version.String())
		return 0
	}

	if (*bench == "") == (*traceFile == "") {
		fail(stderr, fmt.Errorf("give exactly one of -bench or -trace"))
		return 2
	}
	if *bench != "" {
		if _, ok := workload.SuiteConfig(*bench); !ok {
			fail(stderr, fmt.Errorf("unknown benchmark %q", *bench))
			return 2
		}
	}

	cfg := uarch.Baseline()
	if *depth > 0 {
		cfg.FrontendDepth = *depth
	}
	if *rob > 0 {
		cfg.ROBSize = *rob
		if cfg.IQSize > cfg.ROBSize {
			cfg.IQSize = cfg.ROBSize
		}
	}
	if *pred != "" {
		cfg.Pred.Kind = *pred
	}

	soa, name, err := loadTrace(*bench, *traceFile, *insts)
	if err != nil {
		fail(stderr, err)
		return 1
	}

	res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
		RecordEvents:      true,
		RecordMispredicts: true,
		RecordLoadLevels:  true,
		WarmupInsts:       *warmup,
	})
	if err != nil {
		fail(stderr, err)
		return 1
	}
	if err := printReport(stdout, name, soa, res, cfg); err != nil {
		fail(stderr, err)
		return 1
	}
	if *topBranches > 0 {
		fmt.Fprintln(stdout)
		if err := printTopBranches(stdout, soa, res, *topBranches); err != nil {
			fail(stderr, err)
			return 1
		}
	}
	return 0
}

// printTopBranches lists the static branches responsible for the most
// misprediction cycles — the paper's motivating use case.
func printTopBranches(w io.Writer, soa *trace.SoA, res *uarch.Result, n int) error {
	costs := core.CostliestBranches(soa, res, n)
	t := report.New(fmt.Sprintf("top %d costliest static branches", len(costs)),
		"pc", "mispredicts", "total cycles", "avg penalty")
	for _, c := range costs {
		t.AddRow(fmt.Sprintf("%#x", c.PC),
			fmt.Sprintf("%d", c.Mispredicts),
			fmt.Sprintf("%.0f", c.TotalPenalty),
			fmt.Sprintf("%.1f", c.AvgPenalty()),
		)
	}
	return t.Fprint(w)
}

// loadTrace returns the benchmark or trace file packed into the
// struct-of-arrays layout: the simulator's allocation-free fast path and the
// penalty decomposition both read its precomputed dependence metadata.
func loadTrace(bench, traceFile string, insts int) (*trace.SoA, string, error) {
	if bench != "" {
		wc, ok := workload.SuiteConfig(bench)
		if !ok {
			return nil, "", fmt.Errorf("unknown benchmark %q", bench)
		}
		soa, err := trace.PackReader(workload.MustNew(wc, insts))
		return soa, bench, err
	}
	f, err := os.Open(traceFile)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, "", err
	}
	return trace.Pack(tr), traceFile, nil
}

func printReport(w io.Writer, name string, soa *trace.SoA, res *uarch.Result, cfg uarch.Config) error {
	perKI := func(n uint64) float64 { return float64(n) / float64(res.Insts) * 1000 }

	t := report.New(fmt.Sprintf("%s on %s (%d insts measured, %d warmup)",
		name, cfg.Name, res.Insts, soa.Len()-int(res.Insts)),
		"metric", "value")
	t.AddRow("cycles", fmt.Sprintf("%d", res.Cycles))
	t.AddRow("IPC / CPI", fmt.Sprintf("%.3f / %.3f", res.IPC(), res.CPI()))
	t.AddRow("branch mispredicts", fmt.Sprintf("%d (%.2f MPKI; %d direction, %d BTB)",
		res.Mispredicts, perKI(res.Mispredicts), res.Bpred.DirMispredict, res.Bpred.BTBMispredict))
	t.AddRow("I-cache misses", fmt.Sprintf("%d (%.2f /KI)", res.ICacheMisses, perKI(res.ICacheMisses)))
	t.AddRow("short D-misses (L2 hits)", fmt.Sprintf("%d (%.2f /KI)", res.ShortDMisses, perKI(res.ShortDMisses)))
	t.AddRow("long D-misses (memory)", fmt.Sprintf("%d (%.2f /KI)", res.LongDMisses, perKI(res.LongDMisses)))
	t.AddRow("avg mispredict penalty", fmt.Sprintf("%.1f cycles (frontend depth %d)",
		res.AvgMispredictPenalty(), cfg.FrontendDepth))
	if err := t.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	ivs, err := core.Segment(res.Events, uint64(soa.Len()))
	if err != nil {
		return err
	}
	sum := core.Summarize(ivs, 16)
	t2 := report.New("interval analysis", "metric", "value")
	t2.AddRow("intervals", fmt.Sprintf("%d", sum.Count))
	t2.AddRow("mean / max length", fmt.Sprintf("%.0f / %.0f insts", sum.Lengths.Mean(), sum.Lengths.Max()))
	for kind, n := range sum.ByKind {
		t2.AddRow("  ending in "+kind.String(), fmt.Sprintf("%d", n))
	}
	if err := t2.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	dec, err := core.NewPackedDecomposer(soa, res)
	if err != nil {
		return err
	}
	m := core.Mean(dec.DecomposeAll())
	t3 := report.New("misprediction penalty decomposition (mean cycles)", "contributor", "cycles")
	t3.AddRow("(i)   frontend refill", fmt.Sprintf("%.1f", m.Frontend))
	t3.AddRow("(ii+iii) window drain @ unit latency", fmt.Sprintf("%.1f", m.BaseILP))
	t3.AddRow("(iv)  functional-unit latencies", fmt.Sprintf("%.1f", m.FULatency))
	t3.AddRow("(v)   short (L1) D-cache misses", fmt.Sprintf("%.1f", m.ShortDMiss))
	t3.AddRow("      long D-miss overlap", fmt.Sprintf("%.1f", m.LongDMiss))
	t3.AddRow("      residual (contention)", fmt.Sprintf("%.1f", m.Residual))
	t3.AddRow("total", fmt.Sprintf("%.1f", m.Total))
	return t3.Fprint(w)
}
