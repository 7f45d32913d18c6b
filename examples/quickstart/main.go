// Quickstart: generate a synthetic benchmark, run it through the cycle-level
// simulator, and print the headline result of the paper — the average branch
// misprediction penalty is a multiple of the frontend pipeline length.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"intervalsim/internal/core"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

func main() {
	// A benchmark from the built-in suite (a synthetic stand-in for SPEC
	// CPU2000 gcc: large code footprint, mixed branch behaviour).
	wc, ok := workload.SuiteConfig("gcc")
	if !ok {
		log.Fatal("benchmark not found")
	}
	soa, err := trace.PackReader(workload.MustNew(wc, 500_000))
	if err != nil {
		log.Fatal(err)
	}

	// The paper's 4-wide baseline processor with a 5-stage frontend.
	cfg := uarch.Baseline()
	res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
		RecordEvents:      true,
		RecordMispredicts: true,
		WarmupInsts:       100_000,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark        : %s (%d instructions measured)\n", wc.Name, res.Insts)
	fmt.Printf("IPC              : %.2f\n", res.IPC())
	fmt.Printf("mispredictions   : %d (%.1f MPKI)\n",
		res.Mispredicts, float64(res.Mispredicts)/float64(res.Insts)*1000)

	// Interval analysis: execution as a sequence of inter-miss intervals.
	intervals, err := core.Segment(res.Events, uint64(soa.Len()))
	if err != nil {
		log.Fatal(err)
	}
	sum := core.Summarize(intervals, 16)
	fmt.Printf("intervals        : %d, mean length %.0f instructions\n",
		sum.Count, sum.Lengths.Mean())

	// The headline: the misprediction penalty is far larger than the
	// frontend pipeline length it is usually equated with.
	penalty := res.AvgMispredictPenalty()
	fmt.Printf("frontend depth   : %d cycles\n", cfg.FrontendDepth)
	fmt.Printf("avg penalty      : %.1f cycles  (%.1f× the frontend depth)\n",
		penalty, penalty/float64(cfg.FrontendDepth))
}
