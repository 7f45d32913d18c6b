package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/engine"
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

// spec maps the request's run axes onto the engine's run spec.
func (r *BatchRequest) spec() engine.Spec {
	return engine.Spec{
		Mode: r.Mode, Insts: r.Insts, Warmup: r.Warmup, Decompose: r.Decompose,
		SampleDetailed: r.SampleDetailed, SampleSkip: r.SampleSkip,
		Pred: r.Pred, VPred: r.VPred, FetchRate: r.FetchRate,
	}
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

// BatchTrailer is the final NDJSON line of a batch or sweep stream.
type BatchTrailer struct {
	Done    bool   `json:"done"`
	Points  int    `json:"points"`
	OK      int    `json:"ok"`
	Failed  int    `json:"failed"`
	Mode    string `json:"mode"`
	Elapsed string `json:"elapsed"`
}

// Result is the executor result a streamed point carries: the inverse of
// batchLine, so a client renders merged points (the cluster's CSV sink)
// through the same engine.CSVRow the in-process sweep uses.
func (p BatchPoint) Result() engine.Result {
	return engine.Result{
		IPC: p.IPC, Cycles: p.Cycles, AvgPenalty: p.AvgPenalty,
		Penalty: core.Breakdown{
			Frontend: p.PenFrontend, BaseILP: p.PenDrain, FULatency: p.PenFU,
			ShortDMiss: p.PenShortD, LongDMiss: p.PenLongD, Total: p.AvgPenalty,
		},
		Stack: engine.Stack{
			Base: p.CPIBase, Bpred: p.CPIBpred, ICache: p.CPIICache,
			LongData: p.CPILongData, VMisspec: p.CPIVMisspec,
		},
		CPI:   uarch.Interval{Mean: p.CPI, Lower: p.CPILo, Upper: p.CPIHi, RelErr: p.CPIRelErr},
		Units: p.SampleUnits,
		Path:  p.Path, Fallback: p.Fallback,
	}
}

// batchLine maps one point's answer onto its /v1/batch line.
func batchLine(sp BatchPointSpec, r engine.Result, err error, outcome string) BatchPoint {
	p := BatchPoint{Seq: sp.Seq, Width: sp.Width, Depth: sp.Depth, ROB: sp.ROB}
	if err != nil {
		p.Error, p.Outcome = err.Error(), outcome
		return p
	}
	p.IPC, p.Cycles, p.AvgPenalty = r.IPC, r.Cycles, r.AvgPenalty
	p.PenFrontend, p.PenDrain, p.PenFU = r.Penalty.Frontend, r.Penalty.BaseILP, r.Penalty.FULatency
	p.PenShortD, p.PenLongD = r.Penalty.ShortDMiss, r.Penalty.LongDMiss
	p.CPIBase, p.CPIBpred, p.CPIICache = r.Stack.Base, r.Stack.Bpred, r.Stack.ICache
	p.CPILongData, p.CPIVMisspec = r.Stack.LongData, r.Stack.VMisspec
	p.CPI, p.CPILo, p.CPIHi, p.CPIRelErr = r.CPI.Mean, r.CPI.Lower, r.CPI.Upper, r.CPI.RelErr
	p.SampleUnits, p.Path, p.Fallback = r.Units, r.Path, r.Fallback
	return p
}

// pointInputs is a resolved sweep or batch: the shared run and the design
// points in submission order.
type pointInputs struct {
	simInputs
	points []BatchPointSpec
}

// maxROB is the largest ROB any point requests: the depth of the model
// set's window ladder.
func (in pointInputs) maxROB() int {
	rob := 2
	for _, sp := range in.points {
		rob = max(rob, sp.ROB)
	}
	return rob
}

// checkPointCap turns away requests of more than MaxSweepPoints points.
func (s *Server) checkPointCap(n int) error {
	if n > s.opts.MaxSweepPoints {
		return fmt.Errorf("%w: %d points exceeds the %d-point cap", errBadRequest, n, s.opts.MaxSweepPoints)
	}
	return nil
}

// resolvePoints is the admission check sweeps and batches add to the run's:
// the point cap and every point's machine. Batch points are named by seq in
// errors; sweep points by their machine.
func (s *Server) resolvePoints(base simInputs, points []BatchPointSpec, bySeq bool) (pointInputs, error) {
	if err := s.checkPointCap(len(points)); err != nil {
		return pointInputs{}, err
	}
	for _, sp := range points {
		if sp.Width <= 0 || sp.Depth <= 0 || sp.ROB <= 0 {
			return pointInputs{}, fmt.Errorf("%w: point seq %d has non-positive knobs", errBadRequest, sp.Seq)
		}
		if err := engine.PointConfig(base.cfg, sp.Width, sp.Depth, sp.ROB).Validate(); err != nil {
			if bySeq {
				return pointInputs{}, fmt.Errorf("%w: point seq %d: %v", errBadRequest, sp.Seq, err)
			}
			return pointInputs{}, fmt.Errorf("%w: %v", errBadRequest, err)
		}
	}
	return pointInputs{simInputs: base, points: points}, nil
}

func (s *Server) resolveBatch(req *BatchRequest) (pointInputs, error) {
	base, err := s.resolveRun(req.Benchmark, req.Workload, req.spec(), MachineSpec{}, req.TimeoutMS)
	if err != nil {
		return pointInputs{}, err
	}
	if len(req.Points) == 0 {
		return pointInputs{}, fmt.Errorf("%w: batch has no points", errBadRequest)
	}
	return s.resolvePoints(base, req.Points, true)
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
	// the executor's fills can already reach the peers.
	s.learnPeers(r)
	streamPoints(s, w, r, start, in, streamTasks{name: "batch"}, batchLine)
}

// executor resolves a run's shared artifacts through the server's caches
// (the packed trace from the trace cache, the overlay from the overlay
// cache, each filled from fleet peers when they have it) and returns the
// design-point executor over them.
func (s *Server) executor(in simInputs, spec engine.Spec, maxROB int) (*engine.Executor, error) {
	soa, err := s.sharedTrace(in.wc, spec.Insts)
	if err != nil {
		return nil, err
	}
	return engine.New(spec, in.cfg, maxROB, soa, s.overlayFor)
}

// streamTasks names and schedules the pool tasks of one streamed run.
type streamTasks struct {
	name     string // task-name prefix
	priority int
	tenant   string
}

// streamedLine is one NDJSON line on its way to the client.
type streamedLine[P any] struct {
	v      P
	failed bool
}

// streamPoints runs in's points on the pool and streams one NDJSON line
// per point in completion order (line maps each answer onto the surface's
// wire type), then the trailer. The shared artifacts are resolved once up
// front, so a second identical request is pure cache hits; each point then
// runs as its own pool task, under the same backpressure as every other job.
func streamPoints[P any](s *Server, w http.ResponseWriter, r *http.Request, start time.Time, in pointInputs, sched streamTasks,
	line func(BatchPointSpec, engine.Result, error, string) P) {
	exec, err := s.executor(in.simInputs, in.spec, in.maxROB())
	if err != nil {
		s.reject(w, http.StatusInternalServerError, err, outcomeError)
		return
	}
	// Admission check before committing to a stream: if the queue cannot
	// take even one point now, turn the whole request away.
	if ps := s.pool.Stats(); ps.Queued >= ps.Capacity {
		w.Header().Set("Retry-After", s.retryAfter())
		s.reject(w, http.StatusTooManyRequests, ErrQueueFull, outcomeRejected)
		return
	}

	lines := make(chan streamedLine[P], len(in.points))
	var wg sync.WaitGroup
	wg.Add(len(in.points))
	go func() {
		wg.Wait()
		close(lines)
	}()

	// Submit every point; later points block for queue space (backpressure)
	// rather than failing mid-stream.
	go func() {
		for _, sp := range in.points {
			cfg := engine.PointConfig(in.cfg, sp.Width, sp.Depth, sp.ROB)
			var res engine.Result
			t := &task{
				name:     fmt.Sprintf("%s-%s-%s", sched.name, in.wc.Name, cfg.Name),
				timeout:  in.timeout,
				priority: sched.priority,
				tenant:   sched.tenant,
				// A dropped connection must stop the work, not just its
				// output: queued points are skipped and running ones
				// canceled, freeing the worker slots promptly.
				parent: r.Context(),
				run: func(ctx context.Context) (err error) {
					res, err = exec.Run(ctx, cfg)
					return err
				},
				finish: func(err error, d time.Duration) {
					outcome := classify(err)
					s.metrics.observe(outcome, d)
					if err != nil {
						// Do not read res: an abandoned run may still be
						// writing it.
						lines <- streamedLine[P]{line(sp, engine.Result{}, err, outcome), true}
					} else {
						lines <- streamedLine[P]{line(sp, res, nil, outcome), false}
					}
					wg.Done()
				},
			}
			if err := s.pool.SubmitWait(r.Context(), t); err != nil {
				outcome := classify(err)
				s.metrics.count(outcome)
				lines <- streamedLine[P]{line(sp, engine.Result{}, err, outcome), true}
				wg.Done()
			}
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	ok, failed := 0, 0
	for l := range lines {
		if l.failed {
			failed++
		} else {
			ok++
		}
		enc.Encode(l.v) //nolint:errcheck // keep draining for the finishers
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(BatchTrailer{ //nolint:errcheck
		Done: true, Points: len(in.points), OK: ok, Failed: failed,
		Mode: in.spec.Mode, Elapsed: time.Since(start).Round(time.Millisecond).String(),
	})
}
