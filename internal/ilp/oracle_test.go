package ilp

import (
	"io"
	"math"
	"testing"

	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
	"intervalsim/internal/workload"
)

// This file keeps the record-layout dependence analysis the window kernels
// replaced: per-window register tables and a store map keyed by 8-byte word,
// re-derived from the instructions themselves. It is the oracle the kernels
// over packed producer indices must match bit for bit.

// RefLatency is the oracle's latency function: idx is the position within
// the window slice.
type RefLatency func(idx int, in *isa.Inst) float64

// RefCriticalPathTo is the oracle's critical path to the last instruction of
// insts.
func RefCriticalPathTo(insts []isa.Inst, lat RefLatency) float64 {
	depths, _ := refPathDepths(insts, lat)
	if len(depths) == 0 {
		return 0
	}
	return depths[len(depths)-1]
}

func refPathDepths(insts []isa.Inst, lat RefLatency) ([]float64, float64) {
	if len(insts) == 0 {
		return nil, 0
	}
	depths := make([]float64, len(insts))
	var regDepth [isa.NumRegs]float64
	storeDepth := make(map[uint64]float64)
	var maxDepth float64
	for i := range insts {
		in := &insts[i]
		var ready float64
		if r := in.Src1; r != isa.NoReg && regDepth[r] > ready {
			ready = regDepth[r]
		}
		if r := in.Src2; r != isa.NoReg && regDepth[r] > ready {
			ready = regDepth[r]
		}
		if in.Class == isa.Load {
			if d, ok := storeDepth[in.Addr/8]; ok && d > ready {
				ready = d
			}
		}
		d := ready + lat(i, in)
		depths[i] = d
		if d > maxDepth {
			maxDepth = d
		}
		if in.Dst != isa.NoReg {
			regDepth[in.Dst] = d
		}
		if in.Class == isa.Store {
			storeDepth[in.Addr/8] = d
		}
	}
	return depths, maxDepth
}

func refScheduledResolution(insts []isa.Inst, lat RefLatency, width int) float64 {
	n := len(insts)
	if n == 0 {
		return 0
	}
	if width <= 0 {
		width = 1
	}
	const negInf = float64(-1 << 40)
	completion := make([]float64, n)
	var regDone [isa.NumRegs]float64
	for i := range regDone {
		regDone[i] = negInf
	}
	storeDone := make(map[uint64]float64)
	for i := range insts {
		in := &insts[i]
		issue := float64(i+1-n)/float64(width) + 1
		if r := in.Src1; r != isa.NoReg && regDone[r] > issue {
			issue = regDone[r]
		}
		if r := in.Src2; r != isa.NoReg && regDone[r] > issue {
			issue = regDone[r]
		}
		if in.Class == isa.Load {
			if d, ok := storeDone[in.Addr/8]; ok && d > issue {
				issue = d
			}
		}
		done := issue + lat(i, in)
		completion[i] = done
		if in.Dst != isa.NoReg {
			regDone[in.Dst] = done
		}
		if in.Class == isa.Store {
			storeDone[in.Addr/8] = done
		}
	}
	res := completion[n-1]
	if res < 0 {
		return 0
	}
	return res
}

// refProfile streams r through a buffer of the largest window and chops
// each full (or final partial) buffer into windows of every size.
func refProfile(r trace.Reader, windows []int, lat RefLatency, maxInsts int) (Characteristic, error) {
	largest := windows[len(windows)-1]
	buf := make([]isa.Inst, 0, largest)
	sums := make([]float64, len(windows))
	counts := make([]int, len(windows))
	total := 0
	flush := func() {
		for i, w := range windows {
			for off := 0; off+w <= len(buf); off += w {
				_, max := refPathDepths(buf[off:off+w], lat)
				sums[i] += max
				counts[i]++
			}
		}
		buf = buf[:0]
	}
	for maxInsts <= 0 || total < maxInsts {
		in, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Characteristic{}, err
		}
		buf = append(buf, in)
		total++
		if len(buf) == largest {
			flush()
		}
	}
	flush()
	return characteristic(windows, sums, counts), nil
}

// refProfileResolution keeps a sliding buffer of between one and two
// largest windows and resolves every sample-th branch over each window size
// that fits.
func refProfileResolution(r trace.Reader, windows []int, lat RefLatency, width, maxInsts, sample int) (Characteristic, error) {
	largest := windows[len(windows)-1]
	buf := make([]isa.Inst, 0, 2*largest)
	sums := make([]float64, len(windows))
	counts := make([]int, len(windows))
	total, branchSeen := 0, 0
	for maxInsts <= 0 || total < maxInsts {
		in, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Characteristic{}, err
		}
		if len(buf) == 2*largest {
			copy(buf, buf[largest:])
			buf = buf[:largest]
		}
		buf = append(buf, in)
		total++
		if in.Class != isa.Branch {
			continue
		}
		branchSeen++
		if branchSeen%sample != 0 {
			continue
		}
		for i, w := range windows {
			lo := len(buf) - w
			if lo < 0 {
				continue
			}
			sums[i] += refScheduledResolution(buf[lo:], lat, width)
			counts[i]++
		}
	}
	return characteristic(windows, sums, counts), nil
}

// machineLike is a class latency table with a fractional load latency, so
// the oracle comparison exercises non-integer sums.
func machineLike(c isa.Class) float64 {
	switch c {
	case isa.Load:
		return 2.37
	case isa.IntMul:
		return 3
	case isa.IntDiv:
		return 20
	case isa.FPAdd, isa.FPMul:
		return 4
	case isa.FPDiv:
		return 12
	}
	return 1
}

func sameBits(a, b Characteristic) bool {
	if math.Float64bits(a.Alpha) != math.Float64bits(b.Alpha) || math.Float64bits(a.Beta) != math.Float64bits(b.Beta) ||
		len(a.K) != len(b.K) {
		return false
	}
	for i := range a.K {
		if a.Windows[i] != b.Windows[i] || math.Float64bits(a.K[i]) != math.Float64bits(b.K[i]) {
			return false
		}
	}
	return true
}

// TestProfilesMatchOracle: Profile and ProfileResolution over packed
// producer indices give bit-identical characteristics to the record-layout
// oracle on suite traces, for a power-of-two ladder and one ending at a
// non-power-of-two size, over the whole trace and a truncated prefix.
func TestProfilesMatchOracle(t *testing.T) {
	const insts = 60_000
	ladders := [][]int{
		{2, 4, 8, 16, 32, 64, 128, 256},
		{2, 4, 8, 16, 32, 64, 128, 200},
	}
	lats := []struct {
		name string
		lat  LatencyFunc
		ref  RefLatency
	}{
		{"unit", UnitLatency, func(int, *isa.Inst) float64 { return 1 }},
		{"machine", func(_ int, c isa.Class) float64 { return machineLike(c) },
			func(_ int, in *isa.Inst) float64 { return machineLike(in.Class) }},
	}
	for _, bench := range []string{"crafty", "mcf", "gzip"} {
		wc, _ := workload.SuiteConfig(bench)
		soa, err := trace.PackReader(workload.MustNew(wc, insts))
		if err != nil {
			t.Fatal(err)
		}
		for _, windows := range ladders {
			for _, maxInsts := range []int{0, 23_457} {
				for _, l := range lats {
					got, err := Profile(soa, windows, l.lat, maxInsts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refProfile(soa.Reader(), windows, l.ref, maxInsts)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, want) {
						t.Errorf("%s ladder %v max %d %s: Profile %+v, oracle %+v", bench, windows, maxInsts, l.name, got, want)
					}
					for _, width := range []int{2, 4, 8} {
						got, err := ProfileResolution(soa, windows, l.lat, width, maxInsts, 4)
						if err != nil {
							t.Fatal(err)
						}
						want, err := refProfileResolution(soa.Reader(), windows, l.ref, width, maxInsts, 4)
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(got, want) {
							t.Errorf("%s ladder %v max %d %s width %d: ProfileResolution %+v, oracle %+v",
								bench, windows, maxInsts, l.name, width, got, want)
						}
					}
				}
			}
		}
	}
}
