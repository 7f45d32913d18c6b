package engine

import "fmt"

// CSVHeader returns the sweep CSV columns of mode. The sweep command writes
// these rows in-process and the cluster coordinator writes them from merged
// daemon points; both render through CSVHeader and CSVRow, which is what
// makes a distributed sweep byte-identical to a single-process one.
func CSVHeader(mode string) []string {
	switch mode {
	case ModeModel:
		return []string{"width", "depth", "rob", "ipc", "avg_penalty",
			"cpi_base", "cpi_bpred", "cpi_icache", "cpi_longd"}
	case ModeSampled:
		return []string{"width", "depth", "rob", "ipc",
			"cpi", "cpi_lo", "cpi_hi", "cpi_rel_err", "units"}
	default:
		return []string{"width", "depth", "rob", "ipc", "avg_penalty",
			"penalty_frontend", "penalty_drain", "penalty_fu", "penalty_shortd", "penalty_longd"}
	}
}

// CSVRow renders one point's sweep CSV row under mode's columns. Sim-mode
// rows carry the penalty decomposition, so their Result must come from a
// decomposing Spec.
func CSVRow(mode string, width, depth, rob int, r Result) []string {
	row := []string{fmt.Sprint(width), fmt.Sprint(depth), fmt.Sprint(rob), fmt.Sprintf("%.3f", r.IPC)}
	switch mode {
	case ModeModel:
		return append(row,
			fmt.Sprintf("%.2f", r.AvgPenalty),
			fmt.Sprintf("%.3f", r.Stack.Base),
			fmt.Sprintf("%.3f", r.Stack.Bpred),
			fmt.Sprintf("%.3f", r.Stack.ICache),
			fmt.Sprintf("%.3f", r.Stack.LongData),
		)
	case ModeSampled:
		return append(row,
			fmt.Sprintf("%.4f", r.CPI.Mean),
			fmt.Sprintf("%.4f", r.CPI.Lower),
			fmt.Sprintf("%.4f", r.CPI.Upper),
			fmt.Sprintf("%.4f", r.CPI.RelErr),
			fmt.Sprint(r.Units),
		)
	default:
		return append(row,
			fmt.Sprintf("%.2f", r.AvgPenalty),
			fmt.Sprintf("%.2f", r.Penalty.Frontend),
			fmt.Sprintf("%.2f", r.Penalty.BaseILP),
			fmt.Sprintf("%.2f", r.Penalty.FULatency),
			fmt.Sprintf("%.2f", r.Penalty.ShortDMiss),
			fmt.Sprintf("%.2f", r.Penalty.LongDMiss),
		)
	}
}
