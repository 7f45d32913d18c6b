package experiments

import (
	"intervalsim/internal/core"
	"intervalsim/internal/harness"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// traceKey identifies a generated trace: workloads are deterministic
// functions of their Config and the instruction count.
type traceKey struct {
	wc    workload.Config
	insts int
}

// TraceCache is a bounded single-flight cache of generated workload traces.
// The process-wide DefaultTraceCache shares traces across experiments:
// `experiments all` asks for the same (workload, insts) pair from many
// experiments, and regenerating + repacking a multimillion-instruction trace
// each time was the second-largest cost after simulation itself. Services
// that need isolation — e.g. cmd/bench booting several in-process daemons
// that must not silently share artifacts — construct private instances.
//
// Entries are packed traces: the simulator's fast path, the overlay cache,
// the ILP profiler and the penalty decomposer all read the struct-of-arrays
// layout and its precomputed producer indices. A packed trace is immutable
// (core.Predicate re-packs a copy), so one entry is safely shared across
// experiments and harness workers.
type TraceCache struct {
	memo *harness.Memo[traceKey, *trace.SoA]
}

// NewTraceCache returns a TraceCache bounded to capacity traces.
func NewTraceCache(capacity int) *TraceCache {
	return &TraceCache{memo: harness.NewMemo[traceKey, *trace.SoA](capacity)}
}

// DefaultTraceCache is the process-wide shared trace cache. The capacity
// covers the ten-workload suite plus the E6/E8 variants; at the default 2M
// instructions an entry is ~80MB, well within the memory the experiment
// suite budgets.
var DefaultTraceCache = NewTraceCache(24)

// SharedVia returns the cached packed trace for (wc, insts), generating and
// packing it on first use. fill, when non-nil, is consulted on a miss before
// local generation (under the key's single-flight lock, so at most once per
// artifact): if it produces a packed trace (e.g. fetched from a fleet peer),
// that trace is cached as is, and local generation is the fallback when it
// returns nil.
func (c *TraceCache) SharedVia(wc workload.Config, insts int, fill func() *trace.SoA) (*trace.SoA, error) {
	return c.memo.Get(traceKey{wc: wc, insts: insts}, func() (*trace.SoA, error) {
		if fill != nil {
			if soa := fill(); soa != nil {
				return soa, nil
			}
		}
		return trace.PackReader(workload.MustNew(wc, insts))
	})
}

// Counters returns the cache's counter snapshot for observability surfaces.
func (c *TraceCache) Counters() harness.MemoStats { return c.memo.Counters() }

// suiteTraceFor returns the process-wide shared packed trace for (wc,
// insts), generating and packing it on first use.
func suiteTraceFor(wc workload.Config, insts int) (*trace.SoA, error) {
	return DefaultTraceCache.SharedVia(wc, insts, nil)
}

// overlayFor returns the shared miss-event overlay of the workload's packed
// trace under cfg's speculation configuration (predictor + cache geometry +
// optional value predictor).
func overlayFor(soa *trace.SoA, cfg uarch.Config) (*overlay.Overlay, error) {
	return overlay.Shared.GetSpec(soa, cfg.Pred, cfg.Mem, cfg.VPred)
}

// profileFor builds the functional miss-event profile of (wc, insts) under
// cfg from the shared overlay: equivalent to core.FunctionalProfile over the
// same trace (TestOverlayProfileMatchesFunctional) but without re-simulating
// the predictor and caches per call.
func profileFor(wc workload.Config, cfg uarch.Config, p Params) (*core.Profile, error) {
	soa, err := suiteTraceFor(wc, p.Insts)
	if err != nil {
		return nil, err
	}
	ov, err := overlayFor(soa, cfg)
	if err != nil {
		return nil, err
	}
	return core.OverlayProfile(soa, ov, cfg, p.Warmup, 0)
}
