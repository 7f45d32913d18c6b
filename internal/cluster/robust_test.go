package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"intervalsim/internal/engine"
	"intervalsim/internal/service"
)

// respWithRetryAfter fabricates a 429 carrying the given Retry-After header
// (or none, for the empty string).
func respWithRetryAfter(v string) *http.Response {
	h := http.Header{}
	if v != "" {
		h.Set("Retry-After", v)
	}
	return &http.Response{StatusCode: http.StatusTooManyRequests, Header: h}
}

// TestRetryAfterParsing pins the backoff derivation against hostile headers:
// absent, malformed, negative, zero, and fractional values all fall back to
// the 1s floor instead of panicking or spinning, and huge values clamp to
// MaxRetryAfter so one pessimistic daemon cannot wedge a dispatcher.
func TestRetryAfterParsing(t *testing.T) {
	cases := []struct {
		name   string
		header string
		max    time.Duration
		want   time.Duration
	}{
		{"absent", "", 0, time.Second},
		{"malformed word", "soon", 0, time.Second},
		{"malformed fraction", "2.5", 0, time.Second},
		{"http date form", "Fri, 08 Aug 2026 00:00:00 GMT", 0, time.Second},
		{"negative", "-5", 0, time.Second},
		{"zero", "0", 0, time.Second},
		{"in range", "3", 0, 3 * time.Second},
		{"huge clamps to default", "3600", 0, 10 * time.Second},
		{"huge clamps to custom max", "3600", 2 * time.Second, 2 * time.Second},
		{"custom max leaves small alone", "1", 2 * time.Second, time.Second},
	}
	for _, tc := range cases {
		c := &Client{Base: "http://example", MaxRetryAfter: tc.max}
		if got := c.retryAfter(respWithRetryAfter(tc.header)); got != tc.want {
			t.Errorf("%s: retryAfter(%q) = %v, want %v", tc.name, tc.header, got, tc.want)
		}
	}
}

// TestClientRetryAfterAbsentHeader drives the fallback end to end: a 429
// with no Retry-After at all still delays the resubmit by the 1s floor —
// the client never hammers an overloaded daemon just because it forgot (or
// garbled) the header.
func TestClientRetryAfterAbsentHeader(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests) // no Retry-After
			fmt.Fprintln(w, `{"error":"queue full"}`)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"seq":0,"width":2,"depth":3,"rob":64,"ipc":1.2}`)
		fmt.Fprintln(w, `{"done":true,"points":1,"ok":1,"failed":0,"mode":"sim","elapsed":"1ms"}`)
	}))
	defer ts.Close()

	start := time.Now()
	trailer, err := NewClient(ts.URL).Batch(context.Background(), service.BatchRequest{
		Benchmark: "gzip",
		Points:    []service.BatchPointSpec{{Seq: 0, Width: 2, Depth: 3, ROB: 64}},
	}, func(service.BatchPoint) {})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("daemon saw %d requests, want 2 (429 then success)", got)
	}
	if d := time.Since(start); d < 700*time.Millisecond {
		t.Fatalf("resubmitted after %v, want ≥ the 1s fallback (within scheduling slack)", d)
	}
	if trailer.OK != 1 {
		t.Fatalf("trailer = %+v, want 1 ok", trailer)
	}
}

// TestClientReady pins the readiness probe contract: 200 passes the health
// document through, 503 (recovering or draining) is an error naming the
// advertised status, and a daemon too old to serve /readyz falls back to
// the liveness probe so mixed-version fleets keep working.
func TestClientReady(t *testing.T) {
	var status atomic.Value // string: readyz behavior
	status.Store("ok")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			switch s := status.Load().(string); s {
			case "missing":
				http.NotFound(w, r)
			case "ok":
				fmt.Fprintln(w, `{"status":"ok"}`)
			default:
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, `{"status":%q}`, s)
			}
		case "/healthz":
			fmt.Fprintln(w, `{"status":"ok"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	c := NewClient(ts.URL)

	if h, err := c.Ready(context.Background()); err != nil || h.Status != "ok" {
		t.Fatalf("ready daemon: (%+v, %v), want ok", h, err)
	}

	for _, s := range []string{"recovering", "draining"} {
		status.Store(s)
		_, err := c.Ready(context.Background())
		if err == nil || !strings.Contains(err.Error(), "not ready") || !strings.Contains(err.Error(), s) {
			t.Fatalf("%s daemon: err = %v, want not-ready naming %q", s, err, s)
		}
	}

	status.Store("missing")
	if h, err := c.Ready(context.Background()); err != nil || h.Status != "ok" {
		t.Fatalf("pre-/readyz daemon: (%+v, %v), want liveness fallback", h, err)
	}
}

// TestRunSkipsRecoveringNode: the fleet prober must not route sweep work at
// a node that is alive but replaying its journals. With the only endpoint
// stuck in "recovering", the sweep fails fast instead of dispatching at a
// node whose admission would race its recovery.
func TestRunSkipsRecoveringNode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"recovering"}`)
		case "/healthz":
			fmt.Fprintln(w, `{"status":"ok"}`) // alive, but not routable
		case "/v1/batch":
			t.Error("batch dispatched at a recovering node")
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	_, err := Run(context.Background(), Options{
		Endpoints: []string{ts.URL},
		Benches:   []string{"gzip"},
		Widths:    []int{2},
		Depths:    []int{3},
		ROBs:      []int{64},
		Spec:      engine.Spec{Insts: 1000},
	}, func(*Row) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "no healthy endpoints") {
		t.Fatalf("err = %v, want no-healthy-endpoints", err)
	}
}

// TestRunZeroRowShard: a daemon that answers a shard with a well-formed
// trailer but zero result rows must not be mistaken for success. The merger
// never sees those seqs commit, so the sweep ends with the incomplete-sweep
// error naming the missing points rather than silently emitting a short CSV.
// (The lying daemon serves only /healthz, which also exercises the /readyz
// 404 fallback in the initial probe.)
func TestRunZeroRowShard(t *testing.T) {
	var batches atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprintln(w, `{"status":"ok"}`)
		case "/v1/batch":
			batches.Add(1)
			w.Header().Set("Content-Type", "application/x-ndjson")
			// Trailer only: the shard's rows vanished.
			fmt.Fprintln(w, `{"done":true,"points":2,"ok":0,"failed":0,"mode":"sim","elapsed":"1ms"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	var rows atomic.Int32
	rs, err := Run(context.Background(), Options{
		Endpoints:  []string{ts.URL},
		Benches:    []string{"gzip"},
		Widths:     []int{2, 4},
		Depths:     []int{3},
		ROBs:       []int{64},
		Spec:       engine.Spec{Insts: 1000},
		BatchSize:  2,
		StealAfter: -1,
		KeepGoing:  true,
	}, func(*Row) error { rows.Add(1); return nil })
	if batches.Load() == 0 {
		t.Fatal("fake daemon never saw a batch")
	}
	if rows.Load() != 0 {
		t.Fatalf("%d rows emitted from a zero-row shard, want 0", rows.Load())
	}
	if err == nil || !strings.Contains(err.Error(), "sweep incomplete") {
		t.Fatalf("err = %v, want sweep-incomplete", err)
	}
	if !strings.Contains(err.Error(), "2 of 2 points never committed (first missing seq 0)") {
		t.Fatalf("err = %v, want it to name the 2 missing points starting at seq 0", err)
	}
	if rs.OK != 0 || rs.Failed != 0 {
		t.Fatalf("stats = %+v, want nothing committed", rs)
	}
}
