package uarch

import (
	"context"
	"sync"
	"testing"

	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/workload"
)

// sweepConfigs builds k distinct configurations spanning the axes a sweep
// varies: window size, frontend depth, and machine width. All share the
// baseline predictor and memory hierarchy, so one overlay applies to every
// one of them.
func sweepConfigs(k int) []Config {
	depths := []int{3, 5, 7, 9, 11, 4, 6, 8}
	robs := []int{48, 64, 96, 128, 160, 192, 224, 256}
	widths := []int{2, 4, 4, 8, 2, 4, 8, 4}
	cfgs := make([]Config, k)
	for i := range cfgs {
		c := Baseline()
		c.Name = "sweep-" + string(rune('a'+i))
		c.FrontendDepth = depths[i%len(depths)]
		c.ROBSize = robs[i%len(robs)]
		c.IQSize = c.ROBSize / 2
		c.FetchWidth = widths[i%len(widths)]
		c.DispatchWidth = widths[i%len(widths)]
		c.IssueWidth = widths[i%len(widths)]
		c.CommitWidth = widths[i%len(widths)]
		cfgs[i] = c
	}
	return cfgs
}

// TestConcurrentRunsSharedOverlay stresses concurrent RunContext callers
// sharing one packed trace and one memoized overlay — the service serving
// pattern. Run under -race (CI does), this pins the overlay and SoA as
// read-only at simulation time; every concurrent result must still match
// its own serial reference.
func TestConcurrentRunsSharedOverlay(t *testing.T) {
	wc, ok := workload.SuiteConfig("vpr")
	if !ok {
		t.Fatal("unknown benchmark vpr")
	}
	tr, err := trace.ReadAll(workload.MustNew(wc, 30_000))
	if err != nil {
		t.Fatal(err)
	}
	soa := trace.Pack(tr)
	base := Baseline()
	cfgs := sweepConfigs(6)

	var wg sync.WaitGroup
	errs := make([]error, len(cfgs))
	results := make([]*Result, len(cfgs))
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every caller resolves the overlay through the shared memo
			// cache: one Compute, many concurrent readers.
			ov, err := overlay.Shared.Get(soa, base.Pred, base.Mem)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = RunContext(context.Background(), soa.Reader(), cfgs[i], Options{Overlay: ov})
		}(i)
	}
	wg.Wait()
	ov, err := overlay.Shared.Get(soa, base.Pred, base.Mem)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("config %d: %v", i, errs[i])
		}
		if results[i].Path != "soa+overlay" {
			t.Errorf("config %d Path = %q, want soa+overlay", i, results[i].Path)
		}
		serial, err := Run(soa.Reader(), cfg, Options{Overlay: ov})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, serial, results[i])
	}
}
