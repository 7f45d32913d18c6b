package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"intervalsim/internal/service"
	"intervalsim/internal/workload"
)

// mixSize fixes the daemon-mix request sequence: its length, the workload
// pool it draws from, and each request's instruction counts.
type mixSize struct {
	requests int // requests per round
	inline   int // inline workload configs added to the suite names
	hot      int // pool entries most requests draw from
	insts    int
	warmup   uint64
	// Sampled sweep jobs' phase lengths, scaled to the short instruction
	// count so each point still averages several measurement units.
	sampleDetailed, sampleSkip uint64
	// minLatencySamples is the fewest untraced answers a run collects.
	minLatencySamples int
}

// canonicalMix draws from 10 suite names plus 30 inline configs: 40
// workloads against the daemon's 16-entry overlay cache and 24-entry trace
// cache, so requests outside the hot set miss and evict.
var canonicalMix = mixSize{
	requests: 300, inline: 30, hot: 8,
	insts: 10_000, warmup: 1_000,
	sampleDetailed: 250, sampleSkip: 750,
	minLatencySamples: 1_000,
}

// overlayCacheEntries is the daemon's default overlay-cache capacity; the
// request generator models it to label each request warm or cold.
const overlayCacheEntries = 16

// poolEntry is one distinct workload a request can name.
type poolEntry struct {
	suite string // non-empty: sent as "benchmark"; otherwise the inline wc
	wc    workload.Config
}

// mixRequest is one request of the fixed sequence.
type mixRequest struct {
	kind   string // model, simulate, batch or sweepjob
	prov   string // repeat, warm or cold
	first  int    // index of the request this one repeats (itself otherwise)
	pool   int    // pool entry index
	path   string
	body   []byte
	points int // design points the answer covers

	// Decoded inputs, for the in-process recomputation.
	machines [][3]int // (width, depth, rob) per point
	mode     string   // sweep-job mode: sim or sampled
}

// buildPool returns the suite names followed by sz.inline inline configs:
// suite knobs under seeds derived from the benchmark seed.
func buildPool(sz mixSize, seed int64) []poolEntry {
	suite := workload.Suite()
	pool := make([]poolEntry, 0, len(suite)+sz.inline)
	for _, wc := range suite {
		pool = append(pool, poolEntry{suite: wc.Name, wc: wc})
	}
	for i := 0; i < sz.inline; i++ {
		wc := suite[i%len(suite)]
		wc.Name = fmt.Sprintf("%s-x%d", wc.Name, i)
		wc.Seed = splitmix(wc.Seed ^ splitmix(uint64(seed)*1_000_003+uint64(i)))
		pool = append(pool, poolEntry{wc: wc})
	}
	return pool
}

// mixShares fixes the sequence's composition. Counts are exact and only
// their order is seeded, so every seed asks for the same amount of each
// kind of work. Sweep jobs and batches name suite benchmarks, as their real
// senders (sweep -endpoints, sweepctl, the cluster coordinator) do: one sim
// and one sampled sweep job per suite benchmark, each batch a suite
// benchmark at random. Model and simulate requests draw from the whole
// pool, most of them from a seeded hot set.
var mixShares = struct {
	repeat          float64 // of all requests: exact repeats
	hot             float64 // of fresh model and simulate requests: drawn from the hot set
	model, simulate float64 // of the fresh requests besides sweep jobs; batches are the rest
}{repeat: 0.15, hot: 0.7, model: 0.38, simulate: 0.43}

// shuffled returns n values, the first k of them a and the rest b, in a
// seeded order.
func shuffled[T any](rng *rand.Rand, n, k int, a, b T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = b
		if i < k {
			out[i] = a
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// buildMix generates the request sequence of one round from the seed. The
// same seed gives the same sequence, request for request.
func buildMix(sz mixSize, seed int64) ([]poolEntry, []mixRequest, error) {
	pool := buildPool(sz, seed)
	nSuite := len(pool) - sz.inline // the suite entries come first
	rng := rand.New(rand.NewSource(seed))
	sh := mixShares
	// Repeats need an earlier fresh request, so the first ten are fresh.
	repeats := int(sh.repeat * float64(sz.requests))
	isRepeat := append(make([]bool, min(10, sz.requests)), shuffled(rng, max(0, sz.requests-10), repeats, true, false)...)
	fresh := sz.requests - repeats
	type slot struct {
		kind string
		pool int // sweep jobs only
	}
	var slots []slot
	for p := 0; p < nSuite; p++ {
		slots = append(slots, slot{"sweepjob-sim", p}, slot{"sweepjob-sampled", p})
	}
	rest := fresh - len(slots)
	if rest < 0 {
		return nil, nil, fmt.Errorf("%d fresh requests cannot hold %d sweep jobs", fresh, len(slots))
	}
	nModel, nSim := int(sh.model*float64(rest)), int(sh.simulate*float64(rest))
	for i := 0; i < rest; i++ {
		switch {
		case i < nModel:
			slots = append(slots, slot{kind: "model"})
		case i < nModel+nSim:
			slots = append(slots, slot{kind: "simulate"})
		default:
			slots = append(slots, slot{kind: "batch"})
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	fromHot := shuffled(rng, fresh, int(sh.hot*float64(fresh)), true, false)
	// The hot set is a seeded choice of pool entries.
	hot := rng.Perm(len(pool))[:sz.hot]
	var lru []int // pool indices, most recent last
	touch := func(p int) bool {
		hit := false
		for i, q := range lru {
			if q == p {
				lru = append(lru[:i], lru[i+1:]...)
				hit = true
				break
			}
		}
		lru = append(lru, p)
		if len(lru) > overlayCacheEntries {
			lru = lru[1:]
		}
		return hit
	}
	reqs := make([]mixRequest, 0, sz.requests)
	nFresh, nBatch := 0, 0
	for i := 0; i < sz.requests; i++ {
		if isRepeat[i] {
			// An exact repeat of one of the last 50 requests' originals.
			lo := max(0, len(reqs)-50)
			r := reqs[reqs[lo+rng.Intn(len(reqs)-lo)].first]
			r.prov = "repeat"
			touch(r.pool)
			reqs = append(reqs, r)
			continue
		}
		kind, p := slots[nFresh].kind, slots[nFresh].pool
		switch {
		case kind == "batch":
			p = rng.Intn(nSuite)
		case strings.HasPrefix(kind, "sweepjob"):
		case fromHot[nFresh]:
			p = hot[rng.Intn(len(hot))]
		default:
			p = rng.Intn(len(pool))
		}
		nFresh++
		r := mixRequest{first: i, pool: p, prov: "cold"}
		if touch(p) {
			r.prov = "warm"
		}
		// Machines come from the canonical sweep grid, which sweep jobs run
		// whole and the other requests sample.
		g := canonicalSize
		point := func() [3]int {
			return [3]int{g.widths[rng.Intn(len(g.widths))], g.depths[rng.Intn(len(g.depths))], g.robs[rng.Intn(len(g.robs))]}
		}
		var body any
		base := service.SimulateRequest{Insts: sz.insts, Warmup: sz.warmup}
		if e := pool[p]; e.suite != "" {
			base.Benchmark = e.suite
		} else {
			wc := e.wc
			base.Workload = &wc
		}
		switch kind {
		case "model", "simulate":
			r.kind, r.path = kind, "/v1/"+kind
			m := point()
			r.machines = [][3]int{m}
			base.Machine = service.MachineSpec{Width: m[0], Depth: m[1], ROB: m[2]}
			body = base
		case "batch":
			r.kind, r.path = "batch", "/v1/batch"
			br := service.BatchRequest{Benchmark: base.Benchmark, Workload: base.Workload,
				Insts: base.Insts, Warmup: base.Warmup, Decompose: true}
			seen := map[[3]int]bool{}
			// Batch sizes cycle through 3-6 points, so every seed asks for
			// the same number of design points.
			n := 3 + nBatch%4
			nBatch++
			for len(r.machines) < n {
				if m := point(); !seen[m] {
					seen[m] = true
					br.Points = append(br.Points, service.BatchPointSpec{Seq: len(r.machines), Width: m[0], Depth: m[1], ROB: m[2]})
					r.machines = append(r.machines, m)
				}
			}
			body = br
		default:
			r.kind, r.path, r.mode = "sweepjob", "/v1/sweepjobs", strings.TrimPrefix(kind, "sweepjob-")
			for _, w := range g.widths {
				for _, d := range g.depths {
					for _, rob := range g.robs {
						r.machines = append(r.machines, [3]int{w, d, rob})
					}
				}
			}
			sr := service.SweepRequest{Benchmark: base.Benchmark, Workload: base.Workload,
				Insts: base.Insts, Warmup: base.Warmup, Mode: r.mode}
			if r.mode == "sampled" {
				sr.SampleDetailed, sr.SampleSkip = sz.sampleDetailed, sz.sampleSkip
			}
			body = sr
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		r.body, r.points = raw, len(r.machines)
		reqs = append(reqs, r)
	}
	return pool, reqs, nil
}
