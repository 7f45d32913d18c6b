package core

import (
	"reflect"
	"testing"

	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

func TestCostliestBranchesAttribution(t *testing.T) {
	soa, res := runDetailed(t, testWorkload(), uarch.Baseline())
	costs := CostliestBranches(soa, res, 0)
	if len(costs) == 0 {
		t.Fatal("no branch costs attributed")
	}
	// Descending by total penalty.
	var sum float64
	var count uint64
	for i, c := range costs {
		if i > 0 && c.TotalPenalty > costs[i-1].TotalPenalty {
			t.Fatalf("costs not sorted at %d", i)
		}
		if c.Mispredicts == 0 || c.TotalPenalty <= 0 {
			t.Fatalf("degenerate cost entry %+v", c)
		}
		if c.AvgPenalty() < float64(uarch.Baseline().FrontendDepth) {
			t.Fatalf("avg penalty %v below frontend depth", c.AvgPenalty())
		}
		// The PC must belong to a control transfer in the trace (conditional
		// branches, or indirect jumps whose BTB misses also redirect fetch).
		found := false
		for j := range soa.PC {
			if soa.PC[j] == c.PC && soa.Class(j).IsControl() {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("cost attributed to non-control pc %#x", c.PC)
		}
		sum += c.TotalPenalty
		count += c.Mispredicts
	}
	// Totals must reconcile with the records.
	var recSum float64
	var recCount uint64
	for _, r := range res.Records {
		if p := r.Penalty(); p > 0 {
			recSum += p
			recCount++
		}
	}
	if sum != recSum || count != recCount {
		t.Errorf("attribution lost penalties: %v/%d vs %v/%d", sum, count, recSum, recCount)
	}
	// Top-k truncation.
	top3 := CostliestBranches(soa, res, 3)
	if len(top3) != 3 || top3[0] != costs[0] {
		t.Errorf("top-3 truncation wrong")
	}
}

func TestPredicateRemovesMispredictions(t *testing.T) {
	cfg := uarch.Baseline()
	soa, res := runDetailed(t, testWorkload(), cfg)
	costs := CostliestBranches(soa, res, 5)
	pcs := make(map[uint64]bool)
	for _, c := range costs {
		pcs[c.PC] = true
	}
	ptr := Predicate(soa, pcs)
	if ptr.Len() != soa.Len() {
		t.Fatal("predication changed trace length")
	}
	// Converted instructions are valid ALU ops; everything else untouched.
	changed := 0
	for i := 0; i < ptr.Len(); i++ {
		a, b := soa.At(i), ptr.At(i)
		if pcs[a.PC] && a.Class == isa.Branch {
			if b.Class != isa.IntALU {
				t.Fatalf("pc %#x not converted", a.PC)
			}
			if err := b.Validate(); err != nil {
				t.Fatalf("converted instruction invalid: %v", err)
			}
			changed++
		} else if a != b {
			t.Fatalf("untargeted instruction %d modified", i)
		}
	}
	if changed == 0 {
		t.Fatal("nothing converted")
	}
	// Re-simulation: the converted branches can no longer mispredict.
	res2, err := uarch.Run(ptr.Reader(), cfg, uarch.Options{RecordMispredicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mispredicts >= res.Mispredicts {
		t.Errorf("predication did not reduce mispredictions: %d vs %d", res2.Mispredicts, res.Mispredicts)
	}
	// The original trace is untouched.
	for i := range soa.PC {
		if soa.Class(i) == isa.IntALU && pcs[soa.PC[i]] {
			t.Fatal("Predicate mutated its input")
		}
	}
	// The rewritten records' producer indices are re-derived.
	if !reflect.DeepEqual(ptr, trace.Pack(ptr.Unpack())) {
		t.Error("predicated trace's dependence metadata is stale")
	}
}

func TestPredicateEmptySetIsIdentity(t *testing.T) {
	soa, err := trace.PackReader(workloadReader(t, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if out := Predicate(soa, nil); !reflect.DeepEqual(out, soa) {
		t.Fatal("empty predication changed the trace")
	}
}

func workloadReader(t *testing.T, n int) trace.Reader {
	t.Helper()
	g, err := newWorkloadReader(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newWorkloadReader(n int) (trace.Reader, error) {
	return workload.New(testWorkload(), n)
}
