package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"intervalsim/internal/service"
)

// daemonRound is one fresh daemon answering the whole request sequence.
type daemonRound struct {
	traced     bool
	setup      float64 // spawn until /readyz is 200, seconds
	wall       float64 // the request sequence, seconds
	cpu, rssMB float64 // of the daemon process over its life
	answers    []answer
	metrics    service.MetricsResponse
	allocMB    float64 // from the daemon's GC trace (traced rounds)
	gcCycles   float64
}

// runRound spawns a daemon on a fresh store, drives the sequence through
// clients closed-loop connections, scrapes /metrics and drains the daemon.
func runRound(ctx context.Context, env daemonEnv, round int, reqs []mixRequest, tr *Tracer) (*daemonRound, error) {
	storeDir := filepath.Join(env.runDir, fmt.Sprintf("store-%d", round))
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	d, setup, err := startDaemon(env.daemonBin, env.workers, storeDir, tr != nil)
	if err != nil {
		return nil, err
	}
	rd := &daemonRound{traced: tr != nil, setup: setup.Seconds(), answers: make([]answer, len(reqs))}
	transport := &http.Transport{MaxIdleConnsPerHost: env.clients, MaxConnsPerHost: env.clients}
	defer transport.CloseIdleConnections()
	c := &client{hc: &http.Client{Transport: transport, Timeout: 2 * time.Minute}, base: d.base, tr: tr}

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < env.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) || ctx.Err() != nil {
					return
				}
				rd.answers[k] = c.do(fmt.Sprintf("r%d.q%d", round, k), &reqs[k])
			}
		}()
	}
	wg.Wait()
	rd.wall = time.Since(start).Seconds()

	raw, _, err := c.exchange("", 0, "GET", "/metrics", nil)
	if err == nil {
		err = json.Unmarshal(raw, &rd.metrics)
	}
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if rd.cpu, rd.rssMB, err = d.stop(); err != nil {
		return nil, err
	}
	if tr != nil {
		rd.allocMB, rd.gcCycles = parseGCTrace(d.stderr.Bytes())
	}
	return rd, nil
}

var gcLine = regexp.MustCompile(`(?m)^gc \d+ .* (\d+)->(\d+)->(\d+) MB`)

// parseGCTrace reads the runtime's gctrace=1 lines: the GC count and the
// bytes allocated between collections (heap at a GC's start minus the live
// heap the previous one left), in MB.
func parseGCTrace(stderr []byte) (allocMB, cycles float64) {
	live := 0.0
	for _, m := range gcLine.FindAllSubmatch(stderr, -1) {
		startMB, _ := strconv.ParseFloat(string(m[1]), 64)
		liveMB, _ := strconv.ParseFloat(string(m[3]), 64)
		if startMB > live {
			allocMB += startMB - live
		}
		live = liveMB
		cycles++
	}
	return allocMB, cycles
}

// canonicalBatch turns a batch's NDJSON stream into its points sorted by
// seq, rejecting failed points and an incomplete trailer.
func canonicalBatch(raw []byte) ([]byte, error) {
	var pts []service.BatchPoint
	var trailer *service.BatchTrailer
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("batch stream: %w", err)
		}
		if probe.Done != nil {
			trailer = &service.BatchTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				return nil, err
			}
			continue
		}
		var p service.BatchPoint
		if err := json.Unmarshal(line, &p); err != nil {
			return nil, err
		}
		if p.Error != "" {
			return nil, fmt.Errorf("batch point %d: %s", p.Seq, p.Error)
		}
		pts = append(pts, p)
	}
	if trailer == nil || trailer.Failed != 0 || trailer.OK != len(pts) {
		return nil, fmt.Errorf("batch stream incomplete: %d points, trailer %+v", len(pts), trailer)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Seq < pts[j].Seq })
	return json.Marshal(pts)
}

// startupSamples is how many extra daemons a run starts and stops only to
// time their start-up, so setup_s is a median over more than the rounds.
const startupSamples = 8

// timeStartups starts and drains n daemons on fresh stores and returns how
// long each took to become ready, in seconds.
func timeStartups(env daemonEnv, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		dir := filepath.Join(env.runDir, fmt.Sprintf("startup-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		d, setup, err := startDaemon(env.daemonBin, env.workers, dir, false)
		if err != nil {
			return nil, err
		}
		_, _, err = d.stop()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, setup.Seconds())
	}
	return out, nil
}

// runDaemonWorkload replays the seeded request sequence against a fresh
// daemon per round: one untimed warm-up round, then timed rounds until the
// budget is spent, at least two; a traced run alternates traced and
// untraced rounds. Then it checks the answers of every round, recomputing a
// seeded sample of them in-process, and derives the metrics from the timed
// rounds.
func runDaemonWorkload(ctx context.Context, sz mixSize, env daemonEnv) (*outcome, error) {
	pool, reqs, err := buildMix(sz, env.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(env.runDir, 0o755); err != nil {
		return nil, err
	}
	out := newOutcome()
	var tracer *Tracer
	if env.traced {
		tracer = newTracer()
	}
	setups, err := timeStartups(env, startupSamples)
	if err != nil {
		return nil, err
	}
	// Round 0 warms the client up (the first round ran 30% slower than the
	// rest); the budget starts after it. Rounds continue past the budget
	// until the untraced rounds hold minLatencySamples answers, so the p99
	// has ten samples beyond it.
	var rounds, untraced, traced []*daemonRound
	var start time.Time
	samples := 0
	for i := 0; i < 3 || time.Since(start) < env.budget || samples < sz.minLatencySamples; i++ {
		var tr *Tracer
		if env.traced && i%2 == 1 {
			tr = tracer
		}
		rd, err := runRound(ctx, env, i, reqs, tr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, rd)
		switch {
		case i == 0:
			start = time.Now()
		case rd.traced:
			traced = append(traced, rd)
		default:
			untraced = append(untraced, rd)
			samples += len(reqs)
		}
	}

	// Correctness: every request answered, every round the same answers,
	// every repeat the same answer as its original, and a seeded sample
	// recomputed in-process.
	ok, attempted, rejected := 0, 0, 0
	var firstErr error
	for _, rd := range rounds {
		for k, a := range rd.answers {
			attempted++
			switch {
			case a.err == nil:
				ok++
			case firstErr == nil:
				firstErr = fmt.Errorf("request %d (%s): %w", k, reqs[k].kind, a.err)
			}
			if a.status == http.StatusTooManyRequests {
				rejected++
			}
		}
	}
	out.attempted, out.failed = attempted, attempted-ok
	out.check("all-answered", firstErr)
	out.digests["daemon-mix.answers"] = answerDigest(reqs, rounds[0].answers)
	out.check("rounds-identical", checkRounds(reqs, rounds))
	first := rounds[0]
	out.check("repeats-identical", checkRepeats(reqs, first.answers))
	v := newVerifier(pool, sz)
	out.check("recomputed-sample", v.checkSample(ctx, reqs, first.answers, env.seed))

	walls := make([]float64, len(untraced))
	for i, rd := range untraced {
		walls[i] = rd.wall
		setups = append(setups, rd.setup)
	}
	pick := func(rs []*daemonRound, f func(*daemonRound) float64) float64 {
		xs := make([]float64, len(rs))
		for i, rd := range rs {
			xs[i] = f(rd)
		}
		return median(xs)
	}
	// Design points of the fresh requests: a fixed number for every seed,
	// where repeats would add a seeded number of points already answered.
	points := 0
	for k, r := range reqs {
		if r.first == k {
			points += r.points
		}
	}
	var lat []float64
	for _, rd := range untraced {
		for _, a := range rd.answers {
			lat = append(lat, a.latency)
		}
	}
	wall := pick(untraced, func(rd *daemonRound) float64 { return rd.wall })
	cpu := pick(untraced, func(rd *daemonRound) float64 { return rd.cpu })
	out.e2e = map[string]metric{
		"setup_s":      {median(setups), "s"},
		"wall_s":       {wall, "s"},
		"cpu_s":        {cpu, "s"},
		"peak_rss_mb":  {pick(untraced, func(rd *daemonRound) float64 { return rd.rssMB }), "MB"},
		"points_per_s": {pick(untraced, func(rd *daemonRound) float64 { return float64(points) / rd.wall }), "points/s"},
		"req_per_s":    {pick(untraced, func(rd *daemonRound) float64 { return float64(len(reqs)) / rd.wall }), "req/s"},
		"req_p50_ms":   {median(lat) * 1e3, "ms"},
		"req_p99_ms":   {quantile(lat, 0.99) * 1e3, "ms"},
		"ok_ratio":     {float64(ok) / float64(attempted), "ratio"},
	}
	shares := map[string]float64{}
	kinds := map[string]float64{}
	for _, r := range reqs {
		shares[r.prov] += 1 / float64(len(reqs))
		kinds[r.kind] += 1 / float64(len(reqs))
	}
	m := first.metrics
	out.info["rounds"] = len(rounds)
	out.info["warmup_rounds"] = 1
	out.info["round_wall_s"] = walls
	out.info["setup_samples"] = len(setups)
	out.info["requests_per_round"] = len(reqs)
	out.info["latency_samples"] = len(lat)
	out.info["p99_samples_beyond"] = int(float64(len(lat)) * 0.01)
	out.info["clients"] = env.clients
	out.info["workers"] = env.workers
	out.info["provenance_shares"] = shares
	out.info["kind_shares"] = kinds
	out.info["cache_hit_ratios"] = map[string]float64{
		"overlay": m.OverlayCache.HitRate, "trace": m.TraceCache.HitRate, "store": storeHitRatio(m),
	}
	out.info["rejected_429"] = rejected

	if env.traced {
		acc, err := v.accuracy(ctx, reqs, first.answers)
		if err != nil {
			return nil, err
		}
		out.info["accuracy_points"] = map[string]int{"sampled": acc.sampledN, "model": acc.modelN}
		spans := tracer.Spans()
		out.spans = spans
		out.layers = daemonLayerMetrics(spans, reqs, traced)
		// The daemon runs with the default GOMAXPROCS, the host's core count.
		out.layers["harness.cpu_util"] = metric{cpu / (wall * float64(runtime.NumCPU())), "ratio"}
		out.layers["service.rejected"] = metric{float64(rejected), "count"}
		out.layers["tracing.overhead_s"] = metric{pick(traced, func(rd *daemonRound) float64 { return rd.wall }) - wall, "s"}
		out.layers["uarch.sampled_cpi_err"] = metric{acc.sampledErr, "ratio"}
		out.layers["uarch.sampled_ci_coverage"] = metric{acc.coverage, "ratio"}
		out.layers["core.model_cpi_err"] = metric{acc.modelErr, "ratio"}
	}
	return out, nil
}

func storeHitRatio(m service.MetricsResponse) float64 {
	if m.Store == nil || m.Store.Hits+m.Store.Misses == 0 {
		return 0
	}
	return float64(m.Store.Hits) / float64(m.Store.Hits+m.Store.Misses)
}

// daemonLayerMetrics derives the service, cache, store and go layer
// metrics of the traced rounds from the request spans and /metrics.
func daemonLayerMetrics(spans []Span, reqs []mixRequest, traced []*daemonRound) map[string]metric {
	m := map[string]metric{}
	byKind := map[string][]float64{}
	byProv := map[string][]float64{}
	for _, s := range spans {
		var round, k int
		if _, err := fmt.Sscanf(s.Run, "r%d.q%d", &round, &k); err != nil || s.Parent != 0 || k >= len(reqs) {
			continue
		}
		byKind[reqs[k].kind] = append(byKind[reqs[k].kind], s.Dur()*1e3)
		byProv[reqs[k].prov] = append(byProv[reqs[k].prov], s.Dur()*1e3)
	}
	for _, kind := range []string{"model", "simulate", "batch", "sweepjob"} {
		m["service."+kind+".p50_ms"] = metric{median(byKind[kind]), "ms"}
		m["service."+kind+".tail_ms"] = metric{tail(byKind[kind]), "ms"}
	}
	for _, prov := range []string{"repeat", "warm", "cold"} {
		m["service."+prov+".p50_ms"] = metric{median(byProv[prov]), "ms"}
		m["service."+prov+".tail_ms"] = metric{tail(byProv[prov]), "ms"}
	}
	var wait []float64
	var ov, tc, st, puts, alloc, gcs float64
	for _, rd := range traced {
		for k, a := range rd.answers {
			if reqs[k].kind == "simulate" && reqs[k].prov != "repeat" && a.serverDur >= 0 {
				wait = append(wait, (a.latency-a.serverDur)*1e3)
			}
		}
		ov += rd.metrics.OverlayCache.HitRate
		tc += rd.metrics.TraceCache.HitRate
		st += storeHitRatio(rd.metrics)
		if rd.metrics.Store != nil {
			puts += float64(rd.metrics.Store.Puts)
		}
		alloc += rd.allocMB
		gcs += rd.gcCycles
	}
	n := float64(len(traced))
	m["service.queue_wait_ms"] = metric{median(wait), "ms"}
	m["overlay.hit_ratio"] = metric{ov / n, "ratio"}
	m["trace_cache.hit_ratio"] = metric{tc / n, "ratio"}
	m["store.hit_ratio"] = metric{st / n, "ratio"}
	m["store.puts"] = metric{puts / n, "count"}
	m["go.alloc_mb"] = metric{alloc / n, "MB"}
	m["go.gc_cycles"] = metric{gcs / n, "count"}
	return m
}

// answerDigest hashes a round's answers in request order.
func answerDigest(reqs []mixRequest, answers []answer) string {
	var all bytes.Buffer
	for k, a := range answers {
		fmt.Fprintf(&all, "%d %s %d\n", k, reqs[k].kind, len(a.body))
		all.Write(a.body)
	}
	return digest(all.Bytes())
}

// checkRounds requires every round to give the same answers as the first:
// a fresh daemon must answer a fixed sequence identically.
func checkRounds(reqs []mixRequest, rounds []*daemonRound) error {
	want := answerDigest(reqs, rounds[0].answers)
	for i, rd := range rounds[1:] {
		if answerDigest(reqs, rd.answers) != want {
			return fmt.Errorf("round %d answers differ from round 0", i+1)
		}
	}
	return nil
}

// checkRepeats requires every exact repeat to get its original's answer.
func checkRepeats(reqs []mixRequest, answers []answer) error {
	for k, r := range reqs {
		if r.first != k && !bytes.Equal(answers[k].body, answers[r.first].body) {
			return fmt.Errorf("request %d (%s) repeats %d but got a different answer", k, r.kind, r.first)
		}
	}
	return nil
}
