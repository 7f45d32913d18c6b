package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"intervalsim/internal/service"
)

// errIncompleteStream marks a batch stream that ended without its trailer:
// the daemon died or the connection dropped mid-shard. The dispatcher
// treats it as transient and re-dispatches the batch (already-committed
// points are deduplicated by the merger).
var errIncompleteStream = errors.New("cluster: batch stream ended without trailer")

// rejectedError is a daemon's deterministic refusal of a batch: a 4xx other
// than 429, i.e. the request itself is bad (an oversized machine, warmup past
// the instruction budget). Retrying, requeueing or another node cannot help,
// so the dispatcher fails the batch's points instead.
type rejectedError struct {
	status int
	msg    string // the daemon's error message
}

func (e *rejectedError) Error() string {
	return fmt.Sprintf("cluster: daemon status %d: %s", e.status, e.msg)
}

// Client talks to one intervalsimd daemon. It wraps the daemon's JSON API
// with the fleet behaviors a coordinator needs: health probing, metrics
// scraping, NDJSON batch streaming, and honoring 429 + Retry-After
// admission pushback instead of hammering an overloaded node.
type Client struct {
	// Base is the daemon's root URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client; nil means a shared default with no
	// overall timeout (batch streams are long-lived; deadlines come from
	// the dispatch context).
	HTTP *http.Client

	// MaxRetryAfter caps how long one 429 backs the client off, so a
	// daemon advertising a long drain never wedges a dispatcher that could
	// steal work elsewhere; 0 means 10s.
	MaxRetryAfter time.Duration

	// Peers is the coordinator's fleet view minus this daemon, stamped on
	// every batch dispatch as the X-Peers header so the daemon can fill its
	// trace/overlay caches from the rest of the fleet instead of recomputing.
	Peers []string
}

// NewClient returns a client for endpoint, accepting bare host:port
// shorthand for http URLs.
func NewClient(endpoint string) *Client {
	base := endpoint
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// getJSON fetches one JSON document.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Health probes GET /healthz — liveness only: a daemon replaying durable
// job journals after a crash still answers 200 here.
func (c *Client) Health(ctx context.Context) (service.HealthResponse, error) {
	var h service.HealthResponse
	err := getJSON(ctx, c.httpClient(), c.Base+"/healthz", &h)
	return h, err
}

// Ready probes GET /readyz — the routing signal. A daemon that is alive but
// not ready (replaying journals after a restart, or draining) answers 503
// with the same health document; Ready surfaces that as an error so fleet
// probers route work elsewhere until the node recovers. A daemon too old to
// serve /readyz (404) falls back to the liveness probe.
func (c *Client) Ready(ctx context.Context) (service.HealthResponse, error) {
	var h service.HealthResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/readyz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return c.Health(ctx)
	}
	decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h)
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("cluster: %s not ready: status %d (%s)", c.Base, resp.StatusCode, h.Status)
	}
	return h, decErr
}

// Metrics scrapes GET /metrics.
func (c *Client) Metrics(ctx context.Context) (service.MetricsResponse, error) {
	var m service.MetricsResponse
	err := getJSON(ctx, c.httpClient(), c.Base+"/metrics", &m)
	return m, err
}

// Batch dispatches one shard via POST /v1/batch and streams its NDJSON
// result lines to onPoint as they arrive. A 429 response is honored: the
// client waits the advertised (capped) Retry-After and resubmits; any other
// 4xx is a *rejectedError, a refusal no resubmission can change. The
// returned trailer is valid only when err is nil; a stream that ends
// without a trailer reports errIncompleteStream so the caller re-dispatches.
func (c *Client) Batch(ctx context.Context, req service.BatchRequest, onPoint func(service.BatchPoint)) (service.BatchTrailer, error) {
	var trailer service.BatchTrailer
	raw, err := json.Marshal(req)
	if err != nil {
		return trailer, err
	}
	for {
		resp, err := c.post(ctx, c.Base+"/v1/batch", raw)
		if err != nil {
			return trailer, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := c.retryAfter(resp)
			resp.Body.Close()
			select {
			case <-ctx.Done():
				return trailer, ctx.Err()
			case <-time.After(wait):
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			msg := decodeError(resp)
			resp.Body.Close()
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				return trailer, &rejectedError{status: resp.StatusCode, msg: msg}
			}
			return trailer, fmt.Errorf("cluster: daemon status %d: %s", resp.StatusCode, msg)
		}
		return readBatchStream(resp.Body, onPoint)
	}
}

func (c *Client) post(ctx context.Context, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if len(c.Peers) > 0 {
		req.Header.Set("X-Peers", strings.Join(c.Peers, ","))
	}
	return c.httpClient().Do(req)
}

// retryAfter parses the 429's Retry-After seconds, clamped to (0,
// MaxRetryAfter].
func (c *Client) retryAfter(resp *http.Response) time.Duration {
	max := c.MaxRetryAfter
	if max <= 0 {
		max = 10 * time.Second
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		return time.Second
	}
	d := time.Duration(secs) * time.Second
	if d > max {
		d = max
	}
	return d
}

// decodeError extracts the daemon's JSON error message, falling back to the
// status text.
func decodeError(resp *http.Response) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err == nil && e.Error != "" {
		return e.Error
	}
	return http.StatusText(resp.StatusCode)
}

// readBatchStream consumes NDJSON lines until the trailer.
func readBatchStream(body io.ReadCloser, onPoint func(service.BatchPoint)) (service.BatchTrailer, error) {
	defer body.Close()
	var trailer service.BatchTrailer
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				return trailer, fmt.Errorf("cluster: bad trailer: %w", err)
			}
			return trailer, nil
		}
		var pt service.BatchPoint
		if err := json.Unmarshal(line, &pt); err != nil {
			return trailer, fmt.Errorf("cluster: bad stream line: %w", err)
		}
		onPoint(pt)
	}
	if err := sc.Err(); err != nil {
		return trailer, fmt.Errorf("%w: %v", errIncompleteStream, err)
	}
	return trailer, errIncompleteStream
}
