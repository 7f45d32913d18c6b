package experiments

import (
	"fmt"
	"io"

	"intervalsim/internal/core"
	"intervalsim/internal/report"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// vpredFor attaches the workload's value stream to a value-predictor sizing:
// the predictor geometry comes from the preset or budget fitter, the stream
// is workload identity, and the pair is what the simulator runs.
func vpredFor(wc workload.Config, c vpred.Config) *vpred.Config {
	c.Stream = wc.ValueStream()
	return &c
}

// C1 is the value-prediction potential study: each predictor kind at its
// canonical sizing against a machine without value speculation, then CPI as
// a function of the value-table storage budget. Value prediction moves a
// *data* dependence out of the critical path when it hits and inserts a
// mispredict-shaped flush when it is confidently wrong, so the potential
// shows up as a CPI improvement bounded by how predictable the workload's
// value stream is — and the budget curve shows the improvement saturating
// once the table captures the predictable working set.
func C1(w io.Writer, p Params) error {
	names := []string{"gzip", "mcf"}
	kinds := vpred.PresetNames()

	headers := []string{"predictor", "entries", "storage"}
	for _, n := range names {
		headers = append(headers, n+" hit/KI", n+" misspec/KI", n+" CPI", n+" dIPC%")
	}
	t := report.New("C1: value-prediction potential at canonical sizing", headers...)

	baseCPI := make(map[string]float64, len(names))
	baseIPC := make(map[string]float64, len(names))
	row := []string{"none", "-", "-"}
	for _, name := range names {
		wc, ok := workload.SuiteConfig(name)
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %s", name)
		}
		_, res, err := run(wc, uarch.Baseline(), p)
		if err != nil {
			return err
		}
		baseCPI[name] = res.CPI()
		baseIPC[name] = res.IPC()
		row = append(row, "-", "-", fmt.Sprintf("%.3f", res.CPI()), "-")
	}
	t.AddRow(row...)

	for _, kind := range kinds {
		preset, ok := vpred.Preset(kind)
		if !ok {
			return fmt.Errorf("experiments: unknown value predictor %s", kind)
		}
		row := []string{kind, fmt.Sprintf("%d", preset.Entries),
			fmt.Sprintf("%.1f KB", float64(preset.StorageBits())/8/1024)}
		for _, name := range names {
			wc, _ := workload.SuiteConfig(name)
			cfg := uarch.Baseline()
			cfg.VPred = vpredFor(wc, preset)
			_, res, err := run(wc, cfg, p)
			if err != nil {
				return err
			}
			row = append(row,
				fmt.Sprintf("%.2f", perKI(res.ValuePredHits, res.Insts)),
				fmt.Sprintf("%.2f", perKI(res.ValueMisspecs, res.Insts)),
				fmt.Sprintf("%.3f", res.CPI()),
				fmt.Sprintf("%+.1f", (res.IPC()/baseIPC[name]-1)*100),
			)
		}
		t.AddRow(row...)
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// C1b: CPI versus value-table storage budget. For the tag-free last-value
	// and stride tables a bigger table only removes aliasing, so CPI improves
	// monotonically with budget until the predictable producers all fit (the
	// acceptance test pins this). FCM is different: its context hashes can
	// alias into confident-wrong predictions at small sizes, so its curve may
	// dip below the no-prediction baseline before capacity rescues it — an
	// honest cost of context-based prediction, not a bug.
	budgets := []int64{1 << 10 * 8, 4 << 10 * 8, 16 << 10 * 8, 64 << 10 * 8}
	headers2 := []string{"budget"}
	for _, n := range names {
		for _, k := range kinds {
			headers2 = append(headers2, n+" "+k+" CPI")
		}
	}
	t2 := report.New("C1b: CPI vs value-predictor storage budget", headers2...)
	for _, b := range budgets {
		row := []string{fmt.Sprintf("%d KB", b/8/1024)}
		for _, name := range names {
			wc, _ := workload.SuiteConfig(name)
			for _, kind := range kinds {
				sized, ok := vpred.ConfigForBudget(kind, b)
				if !ok {
					return fmt.Errorf("experiments: no %s sizing fits %d bits", kind, b)
				}
				cfg := uarch.Baseline()
				cfg.VPred = vpredFor(wc, sized)
				_, res, err := run(wc, cfg, p)
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.3f", res.CPI()))
			}
		}
		t2.AddRow(row...)
	}
	return t2.Fprint(w)
}

// C2 sweeps the post-low-confidence-branch fetch rate (Ramachandran &
// Johnson's variable fetch policy) and decomposes the misprediction penalty
// at each rate. Throttling stretches the effective refill after every
// redirect that follows a low-confidence branch, so the frontend contributor
// grows as the rate drops while the drain contributors shrink (a thinner
// window drains faster); in a trace-driven model with no wrong-path fetch
// cost the net CPI can only rise — the experiment quantifies by how much,
// which is exactly the cost a real machine would trade against wasted
// wrong-path work.
func C2(w io.Writer, p Params) error {
	rates := []float64{0, 0.75, 0.5, 0.25} // 0 = full rate, the baseline
	name := "crafty"
	wc, ok := workload.SuiteConfig(name)
	if !ok {
		return fmt.Errorf("experiments: unknown benchmark %s", name)
	}
	t := report.New(fmt.Sprintf("C2: fetch-rate throttling after low-confidence branches (%s)", name),
		"fetch rate", "CPI", "avg penalty", "frontend(i)", "drain ILP(ii+iii)", "FU lat(iv)", "shortD(v)", "longD ovl")
	for _, rate := range rates {
		cfg := uarch.Baseline()
		cfg.FetchRate = rate
		soa, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		d, err := core.NewPackedDecomposer(soa, res)
		if err != nil {
			return err
		}
		m := core.Mean(d.DecomposeAll())
		label := "1.00 (full)"
		if rate > 0 {
			label = fmt.Sprintf("%.2f", rate)
		}
		t.AddRow(label,
			fmt.Sprintf("%.3f", res.CPI()),
			fmt.Sprintf("%.1f", res.AvgMispredictPenalty()),
			fmt.Sprintf("%.1f", m.Frontend),
			fmt.Sprintf("%.1f", m.BaseILP),
			fmt.Sprintf("%.1f", m.FULatency),
			fmt.Sprintf("%.1f", m.ShortDMiss),
			fmt.Sprintf("%.1f", m.LongDMiss),
		)
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// C2b: CPI sensitivity to the rate across benchmarks — how much a real
	// design could afford to throttle, per workload branchiness.
	names := []string{"gzip", "crafty", "twolf"}
	headers := []string{"fetch rate"}
	for _, n := range names {
		headers = append(headers, n+" CPI")
	}
	t2 := report.New("C2b: CPI vs post-low-confidence fetch rate", headers...)
	for _, rate := range rates {
		label := "1.00 (full)"
		if rate > 0 {
			label = fmt.Sprintf("%.2f", rate)
		}
		row := []string{label}
		for _, n := range names {
			wcn, ok := workload.SuiteConfig(n)
			if !ok {
				return fmt.Errorf("experiments: unknown benchmark %s", n)
			}
			cfg := uarch.Baseline()
			cfg.FetchRate = rate
			_, res, err := run(wcn, cfg, p)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.3f", res.CPI()))
		}
		t2.AddRow(row...)
	}
	return t2.Fprint(w)
}
