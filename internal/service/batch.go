package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// BatchPointSpec names one design point of a batch: the coordinator's
// global sequence number plus the (width, depth, rob) knobs, resolved
// through experiments.Point so the point means the same processor as in
// cmd/sweep and /v1/sweep.
type BatchPointSpec struct {
	Seq   int `json:"seq"`
	Width int `json:"width"`
	Depth int `json:"depth"`
	ROB   int `json:"rob"`
}

// BatchRequest asks for an explicit list of design points over one workload
// — the shard unit of distributed sweeps. One batch is one HTTP request, so
// a coordinator dispatching thousands of points pays per-shard, not
// per-point, request overhead, and each daemon resolves the workload's
// trace and overlay once per shard (and across shards via the caches).
type BatchRequest struct {
	Benchmark string           `json:"benchmark,omitempty"`
	Workload  *workload.Config `json:"workload,omitempty"`
	Insts     int              `json:"insts,omitempty"`
	Warmup    uint64           `json:"warmup,omitempty"`
	Pred      string           `json:"pred,omitempty"` // predictor preset for every point (default: baseline tournament)
	// VPred/FetchRate apply value prediction and variable-rate fetch to every
	// point, as in MachineSpec; rejected at admission when invalid.
	VPred     string  `json:"vpred,omitempty"`
	FetchRate float64 `json:"fetchrate,omitempty"`
	Mode      string  `json:"mode,omitempty"` // "sim" (default), "sampled", or "model"
	// Decompose adds the interval penalty decomposition (frontend, drain,
	// FU, short-data, long-data) to each sim-mode point — the columns
	// cmd/sweep's CSV carries. It costs one mispredict-penalty
	// decomposition pass per point.
	Decompose bool `json:"decompose,omitempty"`
	// SampleDetailed/SampleSkip are the systematic-sampling phase lengths
	// (sampled mode only; both must be positive): simulate SampleDetailed
	// instructions cycle-accurately, functionally warm SampleSkip, repeat.
	// The request's Warmup becomes the initial functional skip.
	SampleDetailed uint64           `json:"sample_detailed,omitempty"`
	SampleSkip     uint64           `json:"sample_skip,omitempty"`
	TimeoutMS      int              `json:"timeout_ms,omitempty"` // per design point
	Points         []BatchPointSpec `json:"points"`
}

// BatchPoint is one NDJSON line of a batch stream, emitted in completion
// order (Seq echoes the request's spec). Failed points carry Error and
// Outcome instead of measurements.
type BatchPoint struct {
	Seq   int `json:"seq"`
	Width int `json:"width"`
	Depth int `json:"depth"`
	ROB   int `json:"rob"`

	IPC        float64 `json:"ipc,omitempty"`
	AvgPenalty float64 `json:"avg_penalty,omitempty"`
	Cycles     uint64  `json:"cycles,omitempty"`

	// Sim-mode decomposition (Decompose).
	PenFrontend float64 `json:"pen_frontend,omitempty"`
	PenDrain    float64 `json:"pen_drain,omitempty"`
	PenFU       float64 `json:"pen_fu,omitempty"`
	PenShortD   float64 `json:"pen_shortd,omitempty"`
	PenLongD    float64 `json:"pen_longd,omitempty"`

	// Model-mode cycle stack.
	CPIBase     float64 `json:"cpi_base,omitempty"`
	CPIBpred    float64 `json:"cpi_bpred,omitempty"`
	CPIICache   float64 `json:"cpi_icache,omitempty"`
	CPILongData float64 `json:"cpi_longd,omitempty"`
	CPIVMisspec float64 `json:"cpi_vmisspec,omitempty"`

	// Sampled-mode confidence interval: the ratio-estimator CPI over the
	// measurement units with its Student-t bounds (see uarch.SampleStats).
	CPI         float64 `json:"cpi,omitempty"`
	CPILo       float64 `json:"cpi_lo,omitempty"`
	CPIHi       float64 `json:"cpi_hi,omitempty"`
	CPIRelErr   float64 `json:"cpi_rel_err,omitempty"`
	SampleUnits int     `json:"sample_units,omitempty"`

	Path string `json:"path,omitempty"`
	// Fallback is this point's own fast-path bypass provenance
	// (uarch.Result.Fallback), e.g. a divergent speculation fingerprint that
	// forced live simulation instead of overlay replay.
	Fallback string `json:"fallback,omitempty"`
	Error    string `json:"error,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
}

// BatchTrailer is the final NDJSON line of a batch stream.
type BatchTrailer struct {
	Done    bool   `json:"done"`
	Points  int    `json:"points"`
	OK      int    `json:"ok"`
	Failed  int    `json:"failed"`
	Mode    string `json:"mode"`
	Elapsed string `json:"elapsed"`
}

// batchInputs is a resolved batch request.
type batchInputs struct {
	simInputs
	mode           string
	decompose      bool
	sampleDetailed uint64
	sampleSkip     uint64
	specs          []BatchPointSpec
}

func (s *Server) resolveBatch(req *BatchRequest) (batchInputs, error) {
	base, err := s.resolveSimulate(&SimulateRequest{
		Benchmark: req.Benchmark,
		Workload:  req.Workload,
		Insts:     req.Insts,
		Warmup:    req.Warmup,
		Machine:   MachineSpec{Pred: req.Pred, VPred: req.VPred, FetchRate: req.FetchRate},
		TimeoutMS: req.TimeoutMS,
	})
	if err != nil {
		return batchInputs{}, err
	}
	in := batchInputs{simInputs: base, specs: req.Points, decompose: req.Decompose}
	if len(in.specs) == 0 {
		return batchInputs{}, fmt.Errorf("%w: batch has no points", errBadRequest)
	}
	if len(in.specs) > s.opts.MaxSweepPoints {
		return batchInputs{}, fmt.Errorf("%w: %d points exceeds the %d-point cap", errBadRequest, len(in.specs), s.opts.MaxSweepPoints)
	}
	for _, sp := range in.specs {
		if sp.Width <= 0 || sp.Depth <= 0 || sp.ROB <= 0 {
			return batchInputs{}, fmt.Errorf("%w: point seq %d has non-positive knobs", errBadRequest, sp.Seq)
		}
		if err := pointConfig(in.cfg, sp.Width, sp.Depth, sp.ROB).Validate(); err != nil {
			return batchInputs{}, fmt.Errorf("%w: point seq %d: %v", errBadRequest, sp.Seq, err)
		}
	}
	in.mode = req.Mode
	if in.mode == "" {
		in.mode = "sim"
	}
	switch in.mode {
	case "sim", "sampled", "model":
	default:
		return batchInputs{}, fmt.Errorf("%w: unknown mode %q (want sim, sampled or model)", errBadRequest, in.mode)
	}
	if in.decompose && in.mode != "sim" {
		return batchInputs{}, fmt.Errorf("%w: decompose requires sim mode", errBadRequest)
	}
	in.sampleDetailed, in.sampleSkip = req.SampleDetailed, req.SampleSkip
	if in.mode == "sampled" && (in.sampleDetailed == 0 || in.sampleSkip == 0) {
		return batchInputs{}, fmt.Errorf("%w: sampled mode needs positive sample_detailed and sample_skip", errBadRequest)
	}
	return in, nil
}

// handleBatch streams an explicit design-point list as NDJSON: one
// BatchPoint per spec in completion order, then a BatchTrailer. This is the
// shard-dispatch surface of distributed sweeps (see internal/cluster): the
// semantics mirror /v1/sweep, but the caller chooses the points, so a
// coordinator can key shards by workload and keep each daemon's trace and
// overlay caches hot.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	in, err := s.resolveBatch(&req)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	// Batch dispatches come from the cluster coordinator, which stamps its
	// current fleet view on each one; adopt it before resolving artifacts so
	// the fills below can already reach the peers.
	s.learnPeers(r)

	// Shared artifacts, once per batch — and across batches via the caches,
	// filled from fleet peers when possible. Sampled runs bypass overlay
	// replay by design (precomputed dependences do not apply to
	// fast-forwarded runs), so that mode never computes one.
	tr, soa, err := s.sharedTrace(in.wc, in.insts)
	if err != nil {
		s.reject(w, http.StatusInternalServerError, err, outcomeError)
		return
	}
	var ov *overlay.Overlay
	if in.mode != "sampled" {
		if ov, err = s.overlayFor(soa, in.cfg.Pred, in.cfg.Mem, in.cfg.VPred); err != nil {
			s.reject(w, http.StatusInternalServerError, err, outcomeError)
			return
		}
	}
	var set *core.ModelSet
	if in.mode == "model" {
		maxROB := 2
		for _, sp := range in.specs {
			if sp.ROB > maxROB {
				maxROB = sp.ROB
			}
		}
		set, err = core.NewModelSet(soa, ov, in.cfg, maxROB, in.warmup, in.insts)
		if err != nil {
			s.reject(w, http.StatusInternalServerError, err, outcomeError)
			return
		}
	}

	// Admission check before committing to a stream, as for /v1/sweep.
	if ps := s.pool.Stats(); ps.Queued >= ps.Capacity {
		w.Header().Set("Retry-After", s.retryAfter())
		s.reject(w, http.StatusTooManyRequests, ErrQueueFull, outcomeRejected)
		return
	}

	lines := make(chan BatchPoint, len(in.specs))
	var wg sync.WaitGroup
	wg.Add(len(in.specs))
	go func() {
		wg.Wait()
		close(lines)
	}()

	go func() {
		for _, sp := range in.specs {
			cfg := pointConfig(in.cfg, sp.Width, sp.Depth, sp.ROB)
			line := BatchPoint{Seq: sp.Seq, Width: sp.Width, Depth: sp.Depth, ROB: sp.ROB}
			t := &task{
				name:    fmt.Sprintf("batch-%s-%s", in.wc.Name, cfg.Name),
				timeout: in.timeout,
				parent:  r.Context(),
				run: func(ctx context.Context) error {
					switch in.mode {
					case "model":
						return s.modelBatchPoint(cfg, set, &line)
					case "sampled":
						return s.sampledBatchPoint(ctx, soa, cfg, in, &line)
					default:
						return s.simBatchPoint(ctx, tr, soa, ov, cfg, in, &line)
					}
				},
				finish: func(err error, d time.Duration) {
					outcome := classify(err)
					s.metrics.observe(outcome, d)
					if err != nil {
						lines <- BatchPoint{
							Seq: sp.Seq, Width: sp.Width, Depth: sp.Depth, ROB: sp.ROB,
							Error: err.Error(), Outcome: outcome,
						}
					} else {
						lines <- line
					}
					wg.Done()
				},
			}
			if err := s.pool.SubmitWait(r.Context(), t); err != nil {
				outcome := classify(err)
				s.metrics.count(outcome)
				lines <- BatchPoint{
					Seq: sp.Seq, Width: sp.Width, Depth: sp.Depth, ROB: sp.ROB,
					Error: err.Error(), Outcome: outcome,
				}
				wg.Done()
			}
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	ok, failed := 0, 0
	for line := range lines {
		if line.Error == "" {
			ok++
		} else {
			failed++
		}
		enc.Encode(line) //nolint:errcheck // keep draining for the finishers
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(BatchTrailer{ //nolint:errcheck
		Done: true, Points: len(in.specs), OK: ok, Failed: failed,
		Mode: in.mode, Elapsed: time.Since(start).Round(time.Millisecond).String(),
	})
}

// simBatchPoint runs one cycle-level point into line, with the interval
// penalty decomposition when asked for — the exact computation behind
// cmd/sweep's sim-mode CSV row, so a distributed sweep merges to the same
// bytes as a single-process one.
func (s *Server) simBatchPoint(ctx context.Context, tr *trace.Trace, soa *trace.SoA, ov *overlay.Overlay, cfg uarch.Config, in batchInputs, line *BatchPoint) error {
	res, err := uarch.RunContext(ctx, soa.Reader(), cfg, uarch.Options{
		RecordMispredicts: true,
		RecordLoadLevels:  in.decompose,
		WarmupInsts:       in.warmup,
		Overlay:           ov,
	})
	if err != nil {
		return err
	}
	line.IPC = res.IPC()
	line.Cycles = res.Cycles
	line.Path = res.Path
	line.Fallback = res.Fallback
	line.AvgPenalty = res.AvgMispredictPenalty()
	if in.decompose {
		dec, err := core.NewDecomposer(tr, res)
		if err != nil {
			return err
		}
		m := core.Mean(dec.DecomposeAll())
		line.AvgPenalty = m.Total
		line.PenFrontend = m.Frontend
		line.PenDrain = m.BaseILP
		line.PenFU = m.FULatency
		line.PenShortD = m.ShortDMiss
		line.PenLongD = m.LongDMiss
	}
	return nil
}

// sampledBatchPoint runs one design point under systematic sampling and
// fills the CPI confidence-interval fields. The request's warmup budget
// becomes the initial functional skip; no overlay is involved (sampled runs
// track dependences live by design).
func (s *Server) sampledBatchPoint(ctx context.Context, soa *trace.SoA, cfg uarch.Config, in batchInputs, line *BatchPoint) error {
	res, err := uarch.RunContext(ctx, soa.Reader(), cfg, uarch.Options{
		SampleStartSkip: in.warmup,
		SampleDetailed:  in.sampleDetailed,
		SampleSkip:      in.sampleSkip,
	})
	if err != nil {
		return err
	}
	st := res.Sample
	if st == nil {
		return fmt.Errorf("%s: sampled run carries no sample statistics", cfg.Name)
	}
	line.IPC = res.IPC()
	line.Cycles = res.Cycles
	line.Path = res.Path
	line.Fallback = res.Fallback
	line.CPI = st.CPI.Mean
	line.CPILo = st.CPI.Lower
	line.CPIHi = st.CPI.Upper
	line.CPIRelErr = st.CPI.RelErr
	line.SampleUnits = st.Units
	return nil
}

// modelBatchPoint evaluates one analytic-model point into line, mirroring
// cmd/sweep's model-mode CSV row.
func (s *Server) modelBatchPoint(cfg uarch.Config, set *core.ModelSet, line *BatchPoint) error {
	m, prof, err := set.For(cfg)
	if err != nil {
		return err
	}
	pred, err := m.PredictCPI(prof)
	if err != nil {
		return err
	}
	pen, err := modelPenalty(m, prof)
	if err != nil {
		return err
	}
	insts := float64(pred.Insts)
	line.AvgPenalty = pen
	line.CPIBase = pred.Base / insts
	line.CPIBpred = pred.Bpred / insts
	line.CPIICache = pred.ICache / insts
	line.CPILongData = pred.LongData / insts
	line.CPIVMisspec = pred.VMisspec / insts
	if cpi := pred.CPI(); cpi > 0 {
		line.IPC = 1 / cpi
	}
	line.Path = "model"
	return nil
}
