// Model validation walkthrough: build the analytic interval model for one
// benchmark — functional profile (no timing), ILP characteristics, penalty
// model — then compare its CPI stack against the cycle-level simulator.
// This is the paper's methodology end to end in one file.
//
// Run with:
//
//	go run ./examples/modelvalidation
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
	const (
		insts  = 600_000
		warmup = 150_000
	)
	wc, ok := workload.SuiteConfig("parser")
	if !ok {
		log.Fatal("benchmark not found")
	}
	cfg := uarch.Baseline()
	soa, err := trace.PackReader(workload.MustNew(wc, insts))
	if err != nil {
		log.Fatal(err)
	}

	// Step 1 — fast functional profile: drive only the branch predictor and
	// the caches over the trace to collect the miss-event population.
	prof, err := core.FunctionalProfile(soa.Reader(), cfg, warmup, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("functional profile: %d mispredicts, %d I$ misses, %d long D-misses (%d serial)\n",
		prof.Mispredicts, prof.ICacheMisses, prof.LongDMisses, prof.LongSerial)

	// Step 2 — ILP characteristics: critical-path statistics of the program
	// under unit and machine latencies, plus the branch-resolution curve.
	model, err := core.BuildModel(soa, cfg, prof.ShortMissRatio(), insts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ILP characteristic: K(%d) = %.1f (unit), beta = %.2f\n",
		cfg.ROBSize, model.KUnit.EvalInterp(cfg.ROBSize), model.KUnit.Beta)
	fmt.Printf("penalty model: P(8) = %.1f, P(64) = %.1f, P(saturated) = %.1f cycles\n",
		model.MispredictPenalty(8), model.MispredictPenalty(64),
		model.MispredictPenalty(uint64(cfg.ROBSize)))

	// Step 3 — predict the cycle stack analytically (no timing simulation).
	pred, err := model.PredictCPI(prof)
	if err != nil {
		log.Fatal(err)
	}

	// Step 4 — the expensive ground truth: cycle-level simulation.
	res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{WarmupInsts: warmup})
	if err != nil {
		log.Fatal(err)
	}
	relErr, err := core.ValidationError(pred, res)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("model cycle stack  : base %.0f + bpred %.0f + I$ %.0f + longD %.0f = %.0f cycles\n",
		pred.Base, pred.Bpred, pred.ICache, pred.LongData, pred.Total())
	fmt.Printf("model CPI          : %.3f\n", pred.CPI())
	fmt.Printf("simulated CPI      : %.3f\n", res.CPI())
	fmt.Printf("model error        : %+.1f%%\n", relErr*100)
	fmt.Println("\nThe model used only in-order functional simulation plus dependence")
	fmt.Println("statistics — no cycle-level timing — which is the point of interval")
	fmt.Println("analysis: understanding (and predicting) where the cycles go.")
}
