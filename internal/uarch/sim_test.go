package uarch

import (
	"errors"
	"strings"
	"testing"

	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
	"intervalsim/internal/vpred"
)

// testConfig is a small machine with a perfect predictor and big-enough
// caches, so tests isolate one mechanism at a time.
func testConfig() Config {
	c := Baseline()
	c.Name = "test"
	c.Pred = PredictorSpec{Kind: "perfect"}
	return c
}

// loopTrace builds iters repetitions of body (plus a closing jump back), all
// within a compact code region so the I-cache warms after one iteration.
// body receives the iteration's base PC and must return instructions with
// consecutive PCs starting there.
func loopTrace(iters int, bodyLen int, body func(pc uint64, iter int) []isa.Inst) *trace.Trace {
	t := &trace.Trace{}
	base := uint64(0x1000)
	jumpPC := base + uint64(bodyLen)*4
	for it := 0; it < iters; it++ {
		insts := body(base, it)
		if len(insts) != bodyLen {
			panic("body length mismatch")
		}
		t.Insts = append(t.Insts, insts...)
		t.Insts = append(t.Insts, isa.Inst{
			PC: jumpPC, Class: isa.Jump, Taken: true, Target: base,
			Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg,
		})
	}
	return t
}

// aluInst returns an IntALU instruction with the given operands.
func aluInst(pc uint64, src, dst int8) isa.Inst {
	return isa.Inst{PC: pc, Class: isa.IntALU, Src1: src, Src2: isa.NoReg, Dst: dst}
}

func mustRun(t *testing.T, tr *trace.Trace, cfg Config, opts Options) *Result {
	t.Helper()
	res, err := Run(tr.Reader(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidateConfig(t *testing.T) {
	if err := Baseline().Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero width", func(c *Config) { c.DispatchWidth = 0 }},
		{"zero depth", func(c *Config) { c.FrontendDepth = 0 }},
		{"IQ > ROB", func(c *Config) { c.IQSize = c.ROBSize + 1 }},
		{"bad FU", func(c *Config) { c.FU.IntALU.Count = 0 }},
		{"bad predictor", func(c *Config) { c.Pred.Kind = "psychic" }},
		{"bad cache", func(c *Config) { c.Mem.L1D.Size = 77 }},
		// Size ceilings: each mutation is otherwise a buildable machine.
		{"ROB over ceiling", func(c *Config) { c.ROBSize = maxWindow * 2 }},
		{"IQ over ceiling", func(c *Config) { c.ROBSize, c.IQSize = maxWindow, maxWindow+1 }},
		{"width over ceiling", func(c *Config) { c.IssueWidth = maxWidth + 1 }},
		{"depth over ceiling", func(c *Config) { c.FrontendDepth = maxWidth + 1 }},
		{"FU count over ceiling", func(c *Config) { c.FU.MemPort.Count = maxWidth + 1 }},
		{"predictor over ceiling", func(c *Config) { c.Pred.Entries = maxTableEntries * 2 }},
		{"BTB over ceiling", func(c *Config) { c.Pred.BTBEntries = maxTableEntries * 2 }},
		{"value predictor over ceiling", func(c *Config) {
			c.VPred = &vpred.Config{Kind: "last-value", Entries: maxTableEntries * 2}
		}},
		{"cache over ceiling", func(c *Config) { c.Mem.L2.Size = maxCacheBytes * 2 }},
	}
	for _, m := range muts {
		c := Baseline()
		m.mut(&c)
		err := c.Validate()
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate = %v, want ErrBadConfig", m.name, err)
		} else if strings.Contains(m.name, "ceiling") && !strings.Contains(err.Error(), "ceiling") {
			t.Errorf("%s: Validate = %v, want the ceiling named", m.name, err)
		}
	}
}

func TestPredictorSpecBuildKinds(t *testing.T) {
	kinds := []PredictorSpec{
		{Kind: "perfect"},
		{Kind: "taken"},
		{Kind: "not-taken"},
		{Kind: "bimodal", Entries: 64},
		{Kind: "gshare", Entries: 64, HistBits: 4},
		{Kind: "local", Entries: 64, HistBits: 4},
		{Kind: "tournament", Entries: 64, HistBits: 4},
	}
	for _, k := range kinds {
		if _, err := k.Build(); err != nil {
			t.Errorf("%s: %v", k.Kind, err)
		}
	}
	if _, err := (PredictorSpec{Kind: "nope"}).Build(); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestFUsScale(t *testing.T) {
	f := Baseline().FU.Scale(2)
	if f.IntALU.Latency != 2 || f.IntDiv.Latency != 40 {
		t.Errorf("scale 2: ALU=%d DIV=%d", f.IntALU.Latency, f.IntDiv.Latency)
	}
	half := Baseline().FU.Scale(0.1)
	if half.IntALU.Latency < 1 {
		t.Error("latency scaled below 1")
	}
}

func TestIndependentStreamNearFullWidth(t *testing.T) {
	// 12 independent ALU ops + jump per iteration: should sustain close to
	// the 4-wide dispatch limit once warm.
	tr := loopTrace(3000, 12, func(pc uint64, _ int) []isa.Inst {
		out := make([]isa.Inst, 12)
		for i := range out {
			out[i] = aluInst(pc+uint64(i)*4, isa.NoReg, int8(8+i))
		}
		return out
	})
	res := mustRun(t, tr, testConfig(), Options{})
	if res.Insts != uint64(tr.Len()) {
		t.Fatalf("committed %d of %d", res.Insts, tr.Len())
	}
	if ipc := res.IPC(); ipc < 2.5 {
		t.Errorf("independent stream IPC = %.2f, want > 2.5", ipc)
	}
}

func TestSerialChainBoundByLatency(t *testing.T) {
	// Every instruction depends on its predecessor: IPC must be ~1.
	tr := loopTrace(2000, 12, func(pc uint64, _ int) []isa.Inst {
		out := make([]isa.Inst, 12)
		for i := range out {
			out[i] = aluInst(pc+uint64(i)*4, 8, 8) // r8 = f(r8)
		}
		return out
	})
	res := mustRun(t, tr, testConfig(), Options{})
	ipc := res.IPC()
	if ipc > 1.2 || ipc < 0.7 {
		t.Errorf("serial chain IPC = %.2f, want ~1", ipc)
	}
}

func TestChainWithLatencyScales(t *testing.T) {
	// A serial chain of 3-cycle multiplies: IPC ~ 1/3.
	tr := loopTrace(1000, 12, func(pc uint64, _ int) []isa.Inst {
		out := make([]isa.Inst, 12)
		for i := range out {
			out[i] = isa.Inst{PC: pc + uint64(i)*4, Class: isa.IntMul, Src1: 8, Src2: isa.NoReg, Dst: 8}
		}
		return out
	})
	res := mustRun(t, tr, testConfig(), Options{})
	ipc := res.IPC()
	if ipc > 0.45 || ipc < 0.25 {
		t.Errorf("mul chain IPC = %.2f, want ~0.33", ipc)
	}
}

func TestMispredictPenaltyIndependentWindow(t *testing.T) {
	// A taken branch with a static not-taken predictor mispredicts every
	// iteration. With an independent window the branch resolves almost
	// immediately: penalty ≈ frontend depth + dispatch-to-execute time.
	cfg := testConfig()
	cfg.Pred = PredictorSpec{Kind: "not-taken"}
	bodyLen := 8
	tr := &trace.Trace{}
	base := uint64(0x1000)
	brPC := base + uint64(bodyLen)*4
	for it := 0; it < 500; it++ {
		for i := 0; i < bodyLen; i++ {
			tr.Insts = append(tr.Insts, aluInst(base+uint64(i)*4, isa.NoReg, int8(8+i)))
		}
		tr.Insts = append(tr.Insts, isa.Inst{
			PC: brPC, Class: isa.Branch, Taken: true, Target: base,
			Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg,
		})
	}
	res := mustRun(t, tr, cfg, Options{RecordMispredicts: true, RecordEvents: true})
	if res.Mispredicts < 490 {
		t.Fatalf("mispredicts = %d, want ~500", res.Mispredicts)
	}
	avg := res.AvgMispredictPenalty()
	lo := float64(cfg.FrontendDepth + 1)
	hi := float64(cfg.FrontendDepth + 7)
	if avg < lo || avg > hi {
		t.Errorf("avg penalty = %.1f, want in [%.0f, %.0f]", avg, lo, hi)
	}
}

func TestMispredictPenaltyGrowsWithDependentChain(t *testing.T) {
	// The branch now sits at the end of a serial multiply chain: resolution
	// must wait for the chain, so the penalty is much larger than frontend
	// depth — the paper's central observation.
	cfg := testConfig()
	cfg.Pred = PredictorSpec{Kind: "not-taken"}
	bodyLen := 8
	tr := &trace.Trace{}
	base := uint64(0x1000)
	brPC := base + uint64(bodyLen)*4
	for it := 0; it < 500; it++ {
		for i := 0; i < bodyLen; i++ {
			tr.Insts = append(tr.Insts, isa.Inst{
				PC: base + uint64(i)*4, Class: isa.IntMul, Src1: 8, Src2: isa.NoReg, Dst: 8,
			})
		}
		tr.Insts = append(tr.Insts, isa.Inst{
			PC: brPC, Class: isa.Branch, Taken: true, Target: base,
			Src1: 8, Src2: isa.NoReg, Dst: isa.NoReg, // tests the chain result
		})
	}
	res := mustRun(t, tr, cfg, Options{RecordMispredicts: true})
	avg := res.AvgMispredictPenalty()
	// Chain of 8 muls at 3 cycles ≈ 24 cycles of resolution + refill.
	if avg < float64(cfg.FrontendDepth)+15 {
		t.Errorf("chained-branch penalty = %.1f, want ≫ frontend depth %d", avg, cfg.FrontendDepth)
	}
}

func TestMispredictRecordTimingInvariants(t *testing.T) {
	cfg := testConfig()
	cfg.Pred = PredictorSpec{Kind: "not-taken"}
	tr := loopTrace(300, 8, func(pc uint64, _ int) []isa.Inst {
		out := make([]isa.Inst, 8)
		for i := range out {
			out[i] = aluInst(pc+uint64(i)*4, 8, 8)
		}
		return out
	})
	// Swap jumps for taken branches so they mispredict.
	for i := range tr.Insts {
		if tr.Insts[i].Class == isa.Jump {
			tr.Insts[i].Class = isa.Branch
		}
	}
	res := mustRun(t, tr, cfg, Options{RecordMispredicts: true, RecordEvents: true})
	if len(res.Records) == 0 {
		t.Fatal("no records collected")
	}
	for i, r := range res.Records {
		if r.ResumeCycle == 0 {
			continue // trace ended before refill
		}
		if !(r.DispatchCycle < r.IssueCycle && r.IssueCycle < r.ResolveCycle) {
			t.Fatalf("record %d: dispatch %d, issue %d, resolve %d", i, r.DispatchCycle, r.IssueCycle, r.ResolveCycle)
		}
		if r.ResumeCycle < r.ResolveCycle+uint64(cfg.FrontendDepth) {
			t.Fatalf("record %d: resume %d before resolve %d + depth", i, r.ResumeCycle, r.ResolveCycle)
		}
		if r.Penalty() < float64(cfg.FrontendDepth) {
			t.Fatalf("record %d: penalty %.1f below frontend depth", i, r.Penalty())
		}
		if r.Occupancy < 0 || r.Occupancy > cfg.ROBSize {
			t.Fatalf("record %d: occupancy %d", i, r.Occupancy)
		}
	}
}

func TestPerfectPredictorNoMispredictEvents(t *testing.T) {
	tr := loopTrace(500, 8, func(pc uint64, _ int) []isa.Inst {
		out := make([]isa.Inst, 8)
		for i := range out {
			out[i] = aluInst(pc+uint64(i)*4, isa.NoReg, int8(8+i))
		}
		return out
	})
	res := mustRun(t, tr, testConfig(), Options{RecordEvents: true})
	if res.Mispredicts != 0 {
		t.Errorf("perfect predictor yielded %d mispredicts", res.Mispredicts)
	}
	for _, ev := range res.Events {
		if ev.Kind == EvBranchMispredict {
			t.Fatal("mispredict event with perfect predictor")
		}
	}
}

func TestLongDMissDominatesRuntime(t *testing.T) {
	// Serial pointer-chase-like loads to cold lines: every load is a long
	// miss and they cannot overlap, so runtime ≈ N × memory latency.
	cfg := testConfig()
	n := 50
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Insts = append(tr.Insts, isa.Inst{
			PC: 0x1000 + uint64(i%8)*4, Class: isa.Load,
			Src1: 8, Src2: isa.NoReg, Dst: 8,
			Addr: 0x10000000 + uint64(i)*4096, // distinct lines and sets
		})
	}
	res := mustRun(t, tr, cfg, Options{RecordEvents: true})
	if res.LongDMisses != uint64(n) {
		t.Fatalf("long misses = %d, want %d", res.LongDMisses, n)
	}
	wantMin := uint64(n) * uint64(cfg.Mem.Lat.Mem-10)
	if res.Cycles < wantMin {
		t.Errorf("cycles = %d, want ≥ %d (serial misses)", res.Cycles, wantMin)
	}
	longEvents := 0
	for _, ev := range res.Events {
		if ev.Kind == EvLongDMiss {
			longEvents++
		}
	}
	if longEvents != n {
		t.Errorf("long-miss events = %d, want %d", longEvents, n)
	}
}

func TestIndependentLongMissesOverlap(t *testing.T) {
	// Independent loads to cold lines overlap (memory-level parallelism):
	// runtime must be far below N × memory latency.
	cfg := testConfig()
	n := 50
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Insts = append(tr.Insts, isa.Inst{
			PC: 0x1000 + uint64(i%8)*4, Class: isa.Load,
			Src1: 1, Src2: isa.NoReg, Dst: int8(8 + i%32),
			Addr: 0x10000000 + uint64(i)*4096,
		})
	}
	res := mustRun(t, tr, cfg, Options{})
	serial := uint64(n) * uint64(cfg.Mem.Lat.Mem)
	if res.Cycles > serial/4 {
		t.Errorf("cycles = %d; independent misses did not overlap (serial bound %d)", res.Cycles, serial)
	}
}

func TestStoreToLoadDependence(t *testing.T) {
	// load r9 ← [X] must wait for the older store [X] ← r8 where r8 is
	// produced by a long-latency divide. If forwarding order is respected,
	// runtime stretches by the divide latency per iteration.
	cfg := testConfig()
	mk := func(withStore bool) *trace.Trace {
		tr := &trace.Trace{}
		for i := 0; i < 200; i++ {
			pc := uint64(0x1000)
			tr.Insts = append(tr.Insts, isa.Inst{PC: pc, Class: isa.IntDiv, Src1: 8, Src2: isa.NoReg, Dst: 8})
			if withStore {
				tr.Insts = append(tr.Insts, isa.Inst{PC: pc + 4, Class: isa.Store, Src1: 1, Src2: 8, Addr: 0x20000000})
			} else {
				tr.Insts = append(tr.Insts, aluInst(pc+4, 1, 10))
			}
			tr.Insts = append(tr.Insts, isa.Inst{PC: pc + 8, Class: isa.Load, Src1: 1, Src2: isa.NoReg, Dst: 9, Addr: 0x20000000})
			tr.Insts = append(tr.Insts, aluInst(pc+12, 9, 11))
			tr.Insts = append(tr.Insts, isa.Inst{PC: pc + 16, Class: isa.Jump, Taken: true, Target: pc, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg})
		}
		return tr
	}
	with := mustRun(t, mk(true), cfg, Options{})
	without := mustRun(t, mk(false), cfg, Options{})
	if with.Cycles <= without.Cycles {
		t.Errorf("store→load dependence ignored: with=%d without=%d cycles", with.Cycles, without.Cycles)
	}
}

func TestICacheMissesOnColdCode(t *testing.T) {
	// Straight-line code spanning many lines, never revisited: one I-miss
	// per 64B line.
	cfg := testConfig()
	n := 1024
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Insts = append(tr.Insts, aluInst(0x1000+uint64(i)*4, isa.NoReg, 8))
	}
	res := mustRun(t, tr, cfg, Options{RecordEvents: true})
	wantLines := uint64(n * 4 / 64)
	if res.ICacheMisses != wantLines {
		t.Errorf("I-misses = %d, want %d", res.ICacheMisses, wantLines)
	}
	// Each cold line costs ~memory latency in fetch stalls.
	if res.Cycles < wantLines*uint64(cfg.Mem.Lat.Mem)/2 {
		t.Errorf("cycles = %d suspiciously low for cold code", res.Cycles)
	}
}

func TestWarmCodeHasNoICacheMisses(t *testing.T) {
	tr := loopTrace(1000, 8, func(pc uint64, _ int) []isa.Inst {
		out := make([]isa.Inst, 8)
		for i := range out {
			out[i] = aluInst(pc+uint64(i)*4, isa.NoReg, 8)
		}
		return out
	})
	res := mustRun(t, tr, testConfig(), Options{})
	if res.ICacheMisses > 2 {
		t.Errorf("I-misses = %d on a loop fitting one line pair", res.ICacheMisses)
	}
}

func TestROBLimitsMemoryParallelism(t *testing.T) {
	// Independent long-miss loads: a tiny ROB exposes fewer concurrent
	// misses, so a 16-entry window must be slower than a 128-entry one.
	mk := func() *trace.Trace {
		tr := &trace.Trace{}
		for i := 0; i < 400; i++ {
			tr.Insts = append(tr.Insts, isa.Inst{
				PC: 0x1000 + uint64(i%16)*4, Class: isa.Load,
				Src1: 1, Src2: isa.NoReg, Dst: int8(8 + i%32),
				Addr: 0x10000000 + uint64(i)*4096,
			})
		}
		return tr
	}
	small := testConfig()
	small.ROBSize, small.IQSize = 16, 16
	big := testConfig()
	resSmall := mustRun(t, mk(), small, Options{})
	resBig := mustRun(t, mk(), big, Options{})
	if resSmall.Cycles <= resBig.Cycles {
		t.Errorf("ROB size had no effect: small=%d big=%d", resSmall.Cycles, resBig.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *trace.Trace {
		return loopTrace(500, 8, func(pc uint64, it int) []isa.Inst {
			out := make([]isa.Inst, 8)
			for i := range out {
				out[i] = aluInst(pc+uint64(i)*4, int8(8+(i+it)%8), int8(8+i))
			}
			return out
		})
	}
	cfg := testConfig()
	a := mustRun(t, mk(), cfg, Options{RecordEvents: true})
	b := mustRun(t, mk(), cfg, Options{RecordEvents: true})
	if a.Cycles != b.Cycles || a.Insts != b.Insts || len(a.Events) != len(b.Events) {
		t.Error("simulation not deterministic")
	}
}

func TestMaxInsts(t *testing.T) {
	tr := loopTrace(1000, 8, func(pc uint64, _ int) []isa.Inst {
		out := make([]isa.Inst, 8)
		for i := range out {
			out[i] = aluInst(pc+uint64(i)*4, isa.NoReg, 8)
		}
		return out
	})
	res := mustRun(t, tr, testConfig(), Options{MaxInsts: 100})
	if res.Insts != 100 {
		t.Errorf("insts = %d, want 100", res.Insts)
	}
}

func TestTimelineRecording(t *testing.T) {
	tr := loopTrace(100, 8, func(pc uint64, _ int) []isa.Inst {
		out := make([]isa.Inst, 8)
		for i := range out {
			out[i] = aluInst(pc+uint64(i)*4, isa.NoReg, 8)
		}
		return out
	})
	cfg := testConfig()
	res := mustRun(t, tr, cfg, Options{TimelineCycles: 50})
	if len(res.Timeline) != 50 {
		t.Fatalf("timeline length = %d", len(res.Timeline))
	}
	for _, d := range res.Timeline {
		if int(d) > cfg.DispatchWidth {
			t.Fatalf("dispatched %d > width", d)
		}
	}
}

func TestEventsAreOrderedByIndexWithinKind(t *testing.T) {
	cfg := testConfig()
	cfg.Pred = PredictorSpec{Kind: "not-taken"}
	tr := loopTrace(200, 8, func(pc uint64, _ int) []isa.Inst {
		out := make([]isa.Inst, 8)
		for i := range out {
			out[i] = aluInst(pc+uint64(i)*4, 8, 8)
		}
		return out
	})
	for i := range tr.Insts {
		if tr.Insts[i].Class == isa.Jump {
			tr.Insts[i].Class = isa.Branch
		}
	}
	res := mustRun(t, tr, cfg, Options{RecordEvents: true})
	var lastCycle uint64
	for _, ev := range res.Events {
		if ev.Cycle < lastCycle {
			t.Fatalf("events out of cycle order")
		}
		lastCycle = ev.Cycle
	}
}

type errReader struct{ n int }

func (e *errReader) Next() (isa.Inst, error) {
	if e.n <= 0 {
		return isa.Inst{}, errors.New("boom")
	}
	e.n--
	return isa.Inst{PC: 0x1000, Class: isa.IntALU, Src1: isa.NoReg, Src2: isa.NoReg, Dst: 8}, nil
}

func TestReaderErrorPropagates(t *testing.T) {
	_, err := Run(&errReader{n: 10}, testConfig(), Options{})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := Baseline()
	cfg.ROBSize = 0
	if _, err := Run((&trace.Trace{}).Reader(), cfg, Options{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestFrontendDepthShiftsPenalty(t *testing.T) {
	mk := func() *trace.Trace {
		tr := &trace.Trace{}
		base := uint64(0x1000)
		for it := 0; it < 300; it++ {
			for i := 0; i < 8; i++ {
				tr.Insts = append(tr.Insts, aluInst(base+uint64(i)*4, isa.NoReg, int8(8+i)))
			}
			tr.Insts = append(tr.Insts, isa.Inst{
				PC: base + 32, Class: isa.Branch, Taken: true, Target: base,
				Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg,
			})
		}
		return tr
	}
	shallow := testConfig()
	shallow.Pred = PredictorSpec{Kind: "not-taken"}
	shallow.FrontendDepth = 3
	deep := shallow
	deep.FrontendDepth = 13
	resShallow := mustRun(t, mk(), shallow, Options{RecordMispredicts: true})
	resDeep := mustRun(t, mk(), deep, Options{RecordMispredicts: true})
	diff := resDeep.AvgMispredictPenalty() - resShallow.AvgMispredictPenalty()
	if diff < 8 || diff > 12 {
		t.Errorf("depth +10 moved penalty by %.1f, want ~10", diff)
	}
}

func TestEventKindString(t *testing.T) {
	if EvBranchMispredict.String() == "" || EvICacheMiss.String() == "" ||
		EvLongDMiss.String() == "" || EventKind(9).String() == "" {
		t.Error("event kind names empty")
	}
}

func TestShortDMissCounting(t *testing.T) {
	// Working set bigger than L1D (64KB) but within L2 (1MB): repeated
	// passes produce short misses, not long misses.
	cfg := testConfig()
	tr := &trace.Trace{}
	lines := (256 << 10) / 64 // 256KB
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			tr.Insts = append(tr.Insts, isa.Inst{
				PC: 0x1000 + uint64(i%16)*4, Class: isa.Load,
				Src1: 1, Src2: isa.NoReg, Dst: int8(8 + i%32),
				Addr: 0x10000000 + uint64(i)*64,
			})
		}
	}
	res := mustRun(t, tr, cfg, Options{})
	if res.ShortDMisses == 0 {
		t.Fatal("no short misses on an L2-resident working set")
	}
	// After the cold pass, misses should be short (L2 hits), so short ≫ long
	// beyond the first pass.
	if res.ShortDMisses < res.LongDMisses {
		t.Errorf("short=%d < long=%d; expected L2 to capture the set", res.ShortDMisses, res.LongDMisses)
	}
}

var _ = cache.Latencies{} // keep the import if assertions above change
