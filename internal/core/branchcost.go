package core

import (
	"sort"

	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
)

// BranchCost aggregates the measured misprediction cost of one static
// control transfer (a conditional branch, or an indirect jump whose BTB
// misses redirect fetch the same way). The paper's motivation for
// characterizing the penalty is exactly this kind of attribution: deciding
// which branches are worth if-converting (predicating) or otherwise
// restructuring.
type BranchCost struct {
	PC           uint64  // static branch address
	Mispredicts  uint64  // dynamic mispredictions attributed to it
	TotalPenalty float64 // summed measured penalty, cycles
}

// AvgPenalty returns the mean penalty per misprediction of this branch.
func (b BranchCost) AvgPenalty() float64 {
	if b.Mispredicts == 0 {
		return 0
	}
	return b.TotalPenalty / float64(b.Mispredicts)
}

// CostliestBranches attributes every recorded misprediction penalty to its
// static branch and returns the top k branches by total penalty (all of
// them if k <= 0), descending. Ties break on PC for determinism.
func CostliestBranches(soa *trace.SoA, res *uarch.Result, k int) []BranchCost {
	byPC := make(map[uint64]*BranchCost)
	for _, rec := range res.Records {
		p := rec.Penalty()
		if p <= 0 || rec.Index >= uint64(soa.Len()) {
			continue
		}
		pc := soa.PC[rec.Index]
		c := byPC[pc]
		if c == nil {
			c = &BranchCost{PC: pc}
			byPC[pc] = c
		}
		c.Mispredicts++
		c.TotalPenalty += p
	}
	out := make([]BranchCost, 0, len(byPC))
	for _, c := range byPC {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalPenalty != out[j].TotalPenalty {
			return out[i].TotalPenalty > out[j].TotalPenalty
		}
		return out[i].PC < out[j].PC
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// Predicate returns a packed copy of soa in which every conditional branch
// at one of the given PCs is replaced by a plain ALU operation on the same
// source register. This models idealized if-conversion: the control
// dependence becomes a data dependence, so the branch can no longer
// mispredict — but note the trace keeps the taken path's instructions only,
// so the both-paths execution overhead of real predication is not charged
// (an optimistic bound, which is how such studies use it). The rewrite
// changes destination registers, so the copy is re-packed to re-derive its
// producer indices.
func Predicate(soa *trace.SoA, pcs map[uint64]bool) *trace.SoA {
	tr := soa.Unpack()
	for i := range tr.Insts {
		in := &tr.Insts[i]
		if in.Class == isa.Branch && pcs[in.PC] {
			in.Class = isa.IntALU
			in.Taken = false
			in.Target = 0
			in.Dst = isa.NoReg
		}
	}
	return trace.Pack(tr)
}
