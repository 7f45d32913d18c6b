package ilp_test

import (
	"math"
	"testing"

	"intervalsim/internal/cache"
	"intervalsim/internal/core"
	"intervalsim/internal/ilp"
	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// simulate packs insts records of bench and runs them on a baseline machine
// with the given ROB, recording what the decomposer needs.
func simulate(t *testing.T, bench string, insts, rob int) (*trace.SoA, *uarch.Result) {
	t.Helper()
	wc, _ := workload.SuiteConfig(bench)
	soa, err := trace.PackReader(workload.MustNew(wc, insts))
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.Baseline()
	cfg.ROBSize, cfg.IQSize = rob, rob/2
	res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{RecordMispredicts: true, RecordLoadLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	return soa, res
}

// oracleBreakdown decomposes rec with the record-layout oracle: the window
// is the instruction slice [OldestInROB, Index], and the latency functions
// index load levels by offset from the window's first record.
func oracleBreakdown(insts []isa.Inst, res *uarch.Result, rec uarch.MispredictRecord, frontend float64) core.Breakdown {
	base := rec.OldestInROB
	window := insts[base : rec.Index+1]
	cfg := res.Config
	latency := func(withShort, withLong bool) ilp.RefLatency {
		return func(idx int, in *isa.Inst) float64 {
			if in.Class == isa.Load {
				lvl, ok := res.LoadLevel(base + uint64(idx))
				switch {
				case ok && withShort && lvl == cache.ShortMiss:
					return float64(cfg.Mem.Lat.L2)
				case ok && withLong && lvl == cache.LongMiss:
					return float64(cfg.Mem.Lat.Mem)
				default:
					return float64(cfg.Mem.Lat.L1)
				}
			}
			return float64(cfg.FU.OpLatency(in.Class))
		}
	}
	unit := ilp.RefCriticalPathTo(window, func(int, *isa.Inst) float64 { return 1 })
	fu := ilp.RefCriticalPathTo(window, latency(false, false))
	short := ilp.RefCriticalPathTo(window, latency(true, false))
	full := ilp.RefCriticalPathTo(window, latency(true, true))
	b := core.Breakdown{
		Frontend: frontend, BaseILP: unit, FULatency: fu - unit, ShortDMiss: short - fu, LongDMiss: full - short,
		Total: rec.Penalty(), Occupancy: rec.Occupancy, SinceLastMiss: rec.SinceLastMiss,
	}
	b.Residual = b.Total - b.Frontend - full
	return b
}

func sameBreakdown(a, b core.Breakdown) bool {
	fa := []float64{a.Frontend, a.BaseILP, a.FULatency, a.ShortDMiss, a.LongDMiss, a.Residual, a.Total}
	fb := []float64{b.Frontend, b.BaseILP, b.FULatency, b.ShortDMiss, b.LongDMiss, b.Residual, b.Total}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Occupancy == b.Occupancy && a.SinceLastMiss == b.SinceLastMiss
}

// TestDecomposerWindowsMatchOracle: on every misprediction window, both
// decomposer constructors — over the packed trace, and over the record
// layout packed one chunk at a time — give the oracle's critical paths bit
// for bit.
func TestDecomposerWindowsMatchOracle(t *testing.T) {
	for _, bench := range []string{"crafty", "mcf"} {
		for _, rob := range []int{64, 256} {
			soa, res := simulate(t, bench, 60_000, rob)
			tr := soa.Unpack()
			packed, err := core.NewPackedDecomposer(soa, res)
			if err != nil {
				t.Fatal(err)
			}
			records, err := core.NewDecomposer(tr, res)
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, rec := range res.Records {
				bp, okP := packed.Decompose(rec)
				br, okR := records.Decompose(rec)
				if okP != okR || okP != (rec.Penalty() > 0) {
					t.Fatalf("%s rob %d record %d: ok %v/%v", bench, rob, rec.Index, okP, okR)
				}
				if !okP {
					continue
				}
				want := oracleBreakdown(tr.Insts, res, rec, bp.Frontend)
				if !sameBreakdown(bp, want) || !sameBreakdown(br, want) {
					t.Fatalf("%s rob %d record %d: packed %+v, record layout %+v, oracle %+v", bench, rob, rec.Index, bp, br, want)
				}
				checked++
			}
			if checked < 100 {
				t.Fatalf("%s rob %d: only %d windows checked", bench, rob, checked)
			}
		}
	}
}
