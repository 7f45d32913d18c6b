package ilp_test

import (
	"testing"

	"intervalsim/internal/core"
	"intervalsim/internal/ilp"
	"intervalsim/internal/uarch"
)

// TestILPAllocsFlat is the allocation gate of the dependence kernels: the
// profilers and the packed decomposer allocate a fixed number of objects per
// call (result slices and one window buffer), however long the trace.
func TestILPAllocsFlat(t *testing.T) {
	windows := []int{2, 4, 8, 16, 32, 64, 128, 256}
	lat := core.MachineLatency(uarch.Baseline(), 0.1)
	allocs := func(insts int) [3]float64 {
		soa, res := simulate(t, "crafty", insts, 256)
		d, err := core.NewPackedDecomposer(soa, res)
		if err != nil {
			t.Fatal(err)
		}
		return [3]float64{
			testing.AllocsPerRun(3, func() {
				if _, err := ilp.Profile(soa, windows, lat, 0); err != nil {
					t.Fatal(err)
				}
			}),
			testing.AllocsPerRun(3, func() {
				if _, err := ilp.ProfileResolution(soa, windows, lat, 4, 0, 4); err != nil {
					t.Fatal(err)
				}
			}),
			testing.AllocsPerRun(3, func() { d.DecomposeAll() }),
		}
	}
	small, large := allocs(20_000), allocs(80_000)
	for i, name := range []string{"Profile", "ProfileResolution", "DecomposeAll"} {
		if small[i] != large[i] {
			t.Errorf("%s: %v allocs at 20k instructions, %v at 80k", name, small[i], large[i])
		}
	}
	t.Logf("allocs per call (Profile, ProfileResolution, DecomposeAll): %v", small)
}
