// Penalty breakdown: decompose every measured branch misprediction penalty
// into the paper's five contributors, side by side for a compute-bound
// program (gzip) and a memory-bound pointer chaser (mcf).
//
// Run with:
//
//	go run ./examples/penaltybreakdown
package main

import (
	"fmt"
	"log"
	"os"

	"intervalsim/internal/core"
	"intervalsim/internal/report"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

func main() {
	cfg := uarch.Baseline()
	t := report.New("mean misprediction penalty decomposition (cycles)",
		"benchmark", "frontend", "drain(ILP)", "FU lat", "short D$", "long D$", "residual", "total", "occupancy")
	for _, name := range []string{"gzip", "mcf"} {
		wc, ok := workload.SuiteConfig(name)
		if !ok {
			log.Fatalf("benchmark %s not found", name)
		}
		soa, err := trace.PackReader(workload.MustNew(wc, 400_000))
		if err != nil {
			log.Fatal(err)
		}
		res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
			RecordEvents:      true,
			RecordMispredicts: true,
			RecordLoadLevels:  true, // required by the decomposer
			WarmupInsts:       100_000,
		})
		if err != nil {
			log.Fatal(err)
		}
		dec, err := core.NewPackedDecomposer(soa, res)
		if err != nil {
			log.Fatal(err)
		}
		m := core.Mean(dec.DecomposeAll())
		t.AddRow(name,
			fmt.Sprintf("%.1f", m.Frontend),
			fmt.Sprintf("%.1f", m.BaseILP),
			fmt.Sprintf("%.1f", m.FULatency),
			fmt.Sprintf("%.1f", m.ShortDMiss),
			fmt.Sprintf("%.1f", m.LongDMiss),
			fmt.Sprintf("%.1f", m.Residual),
			fmt.Sprintf("%.1f", m.Total),
			fmt.Sprintf("%d", m.Occupancy),
		)
	}
	if err := t.Fprint(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading the table: gzip resolves branches off short ALU chains, so its")
	fmt.Println("penalty is refill + a small drain; mcf's branches wait on pointer-chase")
	fmt.Println("loads that miss to memory, so the long-D$ overlap dominates — the same")
	fmt.Println("misprediction costs an order of magnitude more on a memory-bound program.")
}
