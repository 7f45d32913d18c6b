package core

import (
	"fmt"

	"intervalsim/internal/cache"
	"intervalsim/internal/ilp"
	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
)

// Breakdown splits one measured branch misprediction penalty into the
// paper's contributors. All values are cycles; they satisfy
//
//	Total = Frontend + BaseILP + FULatency + ShortDMiss + LongDMiss + Residual
//
// BaseILP is the unit-latency critical path through the window contents to
// the branch — the drain time a 1-cycle machine would need. It embodies both
// contributor (ii), because the window holds at most the instructions
// dispatched since the last miss event, and contributor (iii), the program's
// inherent ILP. FULatency and ShortDMiss are the critical-path stretch from
// real functional-unit latencies and from loads that missed L1 but hit L2.
// LongDMiss (stretch from loads serviced by memory that feed the branch) is
// reported separately: the paper treats long misses as their own miss-event
// class, and a branch waiting on one exposes the overlap the paper
// discusses. Residual is measured-minus-modeled: issue-width contention and
// other second-order effects.
type Breakdown struct {
	Frontend   float64 // (i) pipeline refill
	BaseILP    float64 // (ii)+(iii) unit-latency window drain to the branch
	FULatency  float64 // (iv)
	ShortDMiss float64 // (v)
	LongDMiss  float64 // long-miss overlap exposed on the resolution path
	Residual   float64 // contention and second-order effects (can be < 0)

	Total         float64 // measured penalty
	Occupancy     int     // window occupancy at branch dispatch
	SinceLastMiss uint64  // instructions since the previous miss event
}

// Decomposer computes per-misprediction breakdowns against the trace the
// simulator ran. It reuses one window buffer across records, so one
// Decomposer serves one goroutine at a time.
type Decomposer struct {
	soa   *trace.SoA // the packed trace, or the packed chunk of insts in use
	insts []isa.Inst // record layout (NewDecomposer only)
	n     uint64     // trace length
	off   int        // trace index of soa's record 0
	cfg   uarch.Config
	res   *uarch.Result // for LoadLevel lookups

	scratch ilp.Scratch
	lat     [3]ilp.LatencyFunc // FU only; + short misses; + long misses
}

// windowChunk is how many records a NewDecomposer packs at a time: every
// misprediction window that fits in the packed chunk is read from it, so the
// decomposer never holds a packed copy of the whole trace.
const windowChunk = 8192

// NewDecomposer prepares a decomposer for the given trace and simulation
// result. The result must have been produced with Options.RecordMispredicts
// and Options.RecordLoadLevels on that same trace. It packs the trace one
// chunk at a time, as the misprediction windows reach it; a caller that
// already has the packed trace should use NewPackedDecomposer, which gives
// identical breakdowns.
func NewDecomposer(tr *trace.Trace, res *uarch.Result) (*Decomposer, error) {
	return newDecomposer(nil, tr.Insts, len(tr.Insts), res)
}

// NewPackedDecomposer is NewDecomposer over the packed trace the simulator
// ran: windows read soa's precomputed producer indices in place, so
// decomposing allocates nothing per record.
func NewPackedDecomposer(soa *trace.SoA, res *uarch.Result) (*Decomposer, error) {
	return newDecomposer(soa, nil, soa.Len(), res)
}

func newDecomposer(soa *trace.SoA, insts []isa.Inst, n int, res *uarch.Result) (*Decomposer, error) {
	if res.Sampled {
		return nil, fmt.Errorf("%w: cannot decompose a sampled run (record indices are not trace positions)", ErrBadInput)
	}
	if len(res.Records) > 0 && res.LoadLevels == nil {
		return nil, fmt.Errorf("%w: result lacks load levels; run with RecordLoadLevels", ErrBadInput)
	}
	d := &Decomposer{soa: soa, insts: insts, n: uint64(n), cfg: res.Config, res: res,
		scratch: make(ilp.Scratch, res.Config.ROBSize)}
	d.lat = [3]ilp.LatencyFunc{d.latency(false, false), d.latency(true, false), d.latency(true, true)}
	return d, nil
}

// Decompose breaks down one misprediction record. Records without a resume
// (trace ended mid-penalty) return ok = false.
func (d *Decomposer) Decompose(rec uarch.MispredictRecord) (Breakdown, bool) {
	if rec.Penalty() <= 0 || rec.Index >= d.n {
		return Breakdown{}, false
	}
	// The window holds the branch and everything older still in the ROB.
	lo, hi := int(rec.OldestInROB), int(rec.Index)+1
	if d.insts != nil && (d.soa == nil || lo < d.off || hi > d.off+d.soa.Len()) {
		end := min(max(lo+windowChunk, hi), len(d.insts))
		d.soa, d.off = trace.Pack(&trace.Trace{Insts: d.insts[lo:end]}), lo
	}
	lo, hi = lo-d.off, hi-d.off

	unit := d.scratch.CriticalPathTo(d.soa, lo, hi, ilp.UnitLatency)
	fu := d.scratch.CriticalPathTo(d.soa, lo, hi, d.lat[0])
	short := d.scratch.CriticalPathTo(d.soa, lo, hi, d.lat[1])
	full := d.scratch.CriticalPathTo(d.soa, lo, hi, d.lat[2])

	b := Breakdown{
		Frontend:      frontendRefill(d.cfg),
		BaseILP:       unit,
		FULatency:     fu - unit,
		ShortDMiss:    short - fu,
		LongDMiss:     full - short,
		Total:         rec.Penalty(),
		Occupancy:     rec.Occupancy,
		SinceLastMiss: rec.SinceLastMiss,
	}
	b.Residual = b.Total - b.Frontend - full
	return b, true
}

// DecomposeAll breaks down every complete record of the result.
func (d *Decomposer) DecomposeAll() []Breakdown {
	out := make([]Breakdown, 0, len(d.res.Records))
	for _, rec := range d.res.Records {
		if b, ok := d.Decompose(rec); ok {
			out = append(out, b)
		}
	}
	return out
}

// latency builds a window latency function: real functional-unit latencies
// everywhere, loads at L1 load-use latency, upgraded to the L2 latency for
// observed short misses (withShort) and to memory latency for observed long
// misses (withLong).
func (d *Decomposer) latency(withShort, withLong bool) ilp.LatencyFunc {
	lat := d.cfg.Mem.Lat
	return func(idx int, c isa.Class) float64 {
		if c == isa.Load {
			lvl, ok := d.res.LoadLevel(uint64(d.off + idx))
			switch {
			case ok && withShort && lvl == cache.ShortMiss:
				return float64(lat.L2)
			case ok && withLong && lvl == cache.LongMiss:
				return float64(lat.Mem)
			default:
				return float64(lat.L1)
			}
		}
		return float64(d.cfg.FU.OpLatency(c))
	}
}

// Mean returns the element-wise mean of breakdowns (zero value if empty).
func Mean(bs []Breakdown) Breakdown {
	var m Breakdown
	if len(bs) == 0 {
		return m
	}
	var occ, since float64
	for _, b := range bs {
		m.Frontend += b.Frontend
		m.BaseILP += b.BaseILP
		m.FULatency += b.FULatency
		m.ShortDMiss += b.ShortDMiss
		m.LongDMiss += b.LongDMiss
		m.Residual += b.Residual
		m.Total += b.Total
		occ += float64(b.Occupancy)
		since += float64(b.SinceLastMiss)
	}
	n := float64(len(bs))
	m.Frontend /= n
	m.BaseILP /= n
	m.FULatency /= n
	m.ShortDMiss /= n
	m.LongDMiss /= n
	m.Residual /= n
	m.Total /= n
	m.Occupancy = int(occ/n + 0.5)
	m.SinceLastMiss = uint64(since/n + 0.5)
	return m
}
