package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/overlay"
	"intervalsim/internal/service"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
)

// verifier recomputes daemon answers in-process through the library calls
// the daemon makes, but simulating live: without the overlay, so a replay
// fault in the daemon shows as a mismatch.
type verifier struct {
	pool   []poolEntry
	sz     mixSize
	traces map[int]*trace.SoA
}

func newVerifier(pool []poolEntry, sz mixSize) *verifier {
	return &verifier{pool: pool, sz: sz, traces: map[int]*trace.SoA{}}
}

func (v *verifier) trace(p int) (*trace.SoA, error) {
	if soa, ok := v.traces[p]; ok {
		return soa, nil
	}
	soa, err := packTrace(v.pool[p].wc, 0, v.sz.insts)
	if err != nil {
		return nil, err
	}
	v.traces[p] = soa
	return soa, nil
}

// live simulates machine m over pool entry p without the overlay.
func (v *verifier) live(ctx context.Context, p int, m [3]int, loadLevels bool) (*uarch.Result, error) {
	soa, err := v.trace(p)
	if err != nil {
		return nil, err
	}
	return uarch.RunContext(ctx, soa.Reader(), experiments.Point(m[0], m[1], m[2]), uarch.Options{
		RecordMispredicts: true,
		RecordLoadLevels:  loadLevels,
		WarmupInsts:       v.sz.warmup,
	})
}

// checkSample recomputes a seeded sample of the fresh (non-repeat) answers
// — about one in twelve, at least one of every kind and one sweep-job CSV
// of each mode — and requires each to match exactly.
func (v *verifier) checkSample(ctx context.Context, reqs []mixRequest, answers []answer, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	picked := map[int]bool{}
	have := map[string]bool{}
	for k, r := range reqs {
		if r.first == k && rng.Float64() < 1.0/12 {
			picked[k] = true
			have[r.kind+r.mode] = true
		}
	}
	for k, r := range reqs {
		if r.first == k && !have[r.kind+r.mode] {
			picked[k] = true
			have[r.kind+r.mode] = true
		}
	}
	for _, k := range sortedInts(picked) {
		if err := v.checkAnswer(ctx, &reqs[k], answers[k].body); err != nil {
			return fmt.Errorf("request %d (%s %s): %w", k, reqs[k].kind, reqs[k].path, err)
		}
	}
	return nil
}

// checkAnswer recomputes one request's answer and compares it with got.
func (v *verifier) checkAnswer(ctx context.Context, r *mixRequest, got []byte) error {
	wc := v.pool[r.pool].wc
	switch r.kind {
	case "simulate":
		res, err := v.live(ctx, r.pool, r.machines[0], false)
		if err != nil {
			return err
		}
		want := service.SimulateResult{
			Benchmark: wc.Name, Machine: res.Config.Name,
			Insts: res.Insts, Cycles: res.Cycles, IPC: res.IPC(), CPI: res.CPI(),
			Mispredicts: res.Mispredicts, ICacheMisses: res.ICacheMisses,
			ShortDMisses: res.ShortDMisses, LongDMisses: res.LongDMisses,
			AvgMispredictPenalty: res.AvgMispredictPenalty(),
			Path:                 "soa+overlay",
		}
		if res.Insts > 0 {
			want.BranchMPKI = float64(res.Mispredicts) / float64(res.Insts) * 1000
		}
		var have service.SimulateResult
		return compareJSON(got, &have, &want)
	case "model":
		want, err := v.model(r)
		if err != nil {
			return err
		}
		var have service.ModelResult
		return compareJSON(got, &have, want)
	case "batch":
		soa, err := v.trace(r.pool)
		if err != nil {
			return err
		}
		tr := soa.Unpack()
		want := make([]service.BatchPoint, len(r.machines))
		for seq, m := range r.machines {
			res, err := v.live(ctx, r.pool, m, true)
			if err != nil {
				return err
			}
			dec, err := core.NewDecomposer(tr, res)
			if err != nil {
				return err
			}
			b := core.Mean(dec.DecomposeAll())
			want[seq] = service.BatchPoint{
				Seq: seq, Width: m[0], Depth: m[1], ROB: m[2],
				IPC: res.IPC(), Cycles: res.Cycles, AvgPenalty: b.Total,
				PenFrontend: b.Frontend, PenDrain: b.BaseILP, PenFU: b.FULatency,
				PenShortD: b.ShortDMiss, PenLongD: b.LongDMiss,
				Path: "soa+overlay",
			}
		}
		var have []service.BatchPoint
		return compareJSON(got, &have, &want)
	case "sweepjob":
		want, err := v.sweepCSV(ctx, r)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("sweep-job CSV differs from the in-process recomputation")
		}
		return nil
	}
	return fmt.Errorf("unknown request kind %q", r.kind)
}

// model recomputes a /v1/model answer the way the daemon does: a model set
// over the overlay of this one machine.
func (v *verifier) model(r *mixRequest) (*service.ModelResult, error) {
	soa, err := v.trace(r.pool)
	if err != nil {
		return nil, err
	}
	m := r.machines[0]
	cfg := experiments.Point(m[0], m[1], m[2])
	ov, err := overlay.ComputeSpec(soa, cfg.Pred, cfg.Mem, cfg.VPred)
	if err != nil {
		return nil, err
	}
	set, err := core.NewModelSet(soa, ov, cfg, cfg.ROBSize, v.sz.warmup, v.sz.insts)
	if err != nil {
		return nil, err
	}
	mod, prof, err := set.For(cfg)
	if err != nil {
		return nil, err
	}
	pred, err := mod.PredictCPI(prof)
	if err != nil {
		return nil, err
	}
	pen, err := modelPenalty(mod, prof)
	if err != nil {
		return nil, err
	}
	insts := float64(pred.Insts)
	out := &service.ModelResult{
		Benchmark: v.pool[r.pool].wc.Name, Machine: cfg.Name,
		Insts: pred.Insts, CPI: pred.CPI(),
		CPIBase: pred.Base / insts, CPIBpred: pred.Bpred / insts,
		CPIICache: pred.ICache / insts, CPILongData: pred.LongData / insts,
		CPIVMisspec:          pred.VMisspec / insts,
		AvgMispredictPenalty: pen,
	}
	if out.CPI > 0 {
		out.IPC = 1 / out.CPI
	}
	return out, nil
}

// sweepCSV recomputes a sweep job's CSV artifact point by point.
func (v *verifier) sweepCSV(ctx context.Context, r *mixRequest) ([]byte, error) {
	var b strings.Builder
	if r.mode == "sampled" {
		b.WriteString("seq,width,depth,rob,ipc,cpi,cpi_lo,cpi_hi,cpi_rel_err,units\n")
	} else {
		b.WriteString("seq,width,depth,rob,ipc,avg_penalty,cycles\n")
	}
	soa, err := v.trace(r.pool)
	if err != nil {
		return nil, err
	}
	for seq, m := range r.machines {
		if r.mode == "sampled" {
			res, err := uarch.RunContext(ctx, soa.Reader(), experiments.Point(m[0], m[1], m[2]), uarch.Options{
				SampleStartSkip: v.sz.warmup,
				SampleDetailed:  v.sz.sampleDetailed,
				SampleSkip:      v.sz.sampleSkip,
			})
			if err != nil {
				return nil, err
			}
			st := res.Sample
			if st == nil {
				return nil, fmt.Errorf("sampled run without sample statistics")
			}
			fmt.Fprintf(&b, "%d,%d,%d,%d,%.3f,%.4f,%.4f,%.4f,%.4f,%d\n",
				seq, m[0], m[1], m[2], res.IPC(), st.CPI.Mean, st.CPI.Lower, st.CPI.Upper, st.CPI.RelErr, st.Units)
			continue
		}
		res, err := v.live(ctx, r.pool, m, false)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%d,%d,%d,%d,%.3f,%.2f,%d\n", seq, m[0], m[1], m[2], res.IPC(), res.AvgMispredictPenalty(), res.Cycles)
	}
	return []byte(b.String()), nil
}

// compareJSON decodes got into have and requires it to equal want.
func compareJSON(got []byte, have, want any) error {
	if err := json.Unmarshal(got, have); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	if !reflect.DeepEqual(have, want) {
		h, _ := json.Marshal(have)
		w, _ := json.Marshal(want)
		return fmt.Errorf("answer %s, recomputed %s", h, w)
	}
	return nil
}

// accuracyOut is the model's and the sampler's error against the
// cycle-level simulator over the sequence's fresh answers.
type accuracyOut struct {
	modelErr, sampledErr, coverage float64
	modelN, sampledN               int
}

// accuracy simulates live every (workload, machine) a fresh model answer
// or sampled sweep-job row covers, and compares CPIs.
func (v *verifier) accuracy(ctx context.Context, reqs []mixRequest, answers []answer) (accuracyOut, error) {
	var mErr, sErr, cover []float64
	for k, r := range reqs {
		if r.first != k || answers[k].err != nil {
			continue
		}
		switch {
		case r.kind == "model":
			var have service.ModelResult
			if err := json.Unmarshal(answers[k].body, &have); err != nil {
				return accuracyOut{}, err
			}
			res, err := v.live(ctx, r.pool, r.machines[0], false)
			if err != nil {
				return accuracyOut{}, err
			}
			mErr = append(mErr, abs(have.CPI-res.CPI())/res.CPI())
		case r.kind == "sweepjob" && r.mode == "sampled":
			rows, err := csv.NewReader(bytes.NewReader(answers[k].body)).ReadAll()
			if err != nil {
				return accuracyOut{}, err
			}
			for seq, m := range r.machines {
				if seq+1 >= len(rows) || len(rows[seq+1]) < 8 {
					return accuracyOut{}, fmt.Errorf("request %d: sampled CSV has no row %d", k, seq)
				}
				var cpi [3]float64 // cpi, cpi_lo, cpi_hi
				for i := range cpi {
					if cpi[i], err = strconv.ParseFloat(rows[seq+1][5+i], 64); err != nil {
						return accuracyOut{}, err
					}
				}
				res, err := v.live(ctx, r.pool, m, false)
				if err != nil {
					return accuracyOut{}, err
				}
				ref := res.CPI()
				sErr = append(sErr, abs(cpi[0]-ref)/ref)
				cover = append(cover, b2f(ref >= cpi[1] && ref <= cpi[2]))
			}
		}
	}
	return accuracyOut{modelErr: mean(mErr), sampledErr: mean(sErr), coverage: mean(cover),
		modelN: len(mErr), sampledN: len(sErr)}, nil
}

func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
