package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"intervalsim/internal/service"
)

// daemonEnv is what the daemon workload needs beyond its request mix.
type daemonEnv struct {
	seed      int64
	budget    time.Duration
	traced    bool
	workers   int
	clients   int
	daemonBin string
	runDir    string // per-run directory for the daemons' stores
}

// daemon is one running intervalsimd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *bytes.Buffer
	done   chan struct{} // closed when stdout is drained
}

// startDaemon spawns intervalsimd on a free loopback port with a fresh
// store and returns once /readyz answers 200, with the time that took.
func startDaemon(bin string, workers int, storeDir string, gctrace bool) (*daemon, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers), "-store", storeDir)
	// The daemon must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}, done: make(chan struct{})}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start intervalsimd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), " listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, errors.New("intervalsimd did not report its address within 30s")
	case <-d.done:
		d.cmd.Wait() //nolint:errcheck // the process already exited; stderr says why
		return nil, 0, fmt.Errorf("intervalsimd exited during start-up: %s", d.stderr.String())
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, errors.New("intervalsimd not ready within 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return d, time.Since(start), nil
}

// kill stops the daemon hard and reaps it; for error paths.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // it may have exited already
	<-d.done
	d.cmd.Wait() //nolint:errcheck
}

// stop drains the daemon with SIGTERM, waits for it to exit, and returns
// its CPU time and peak RSS over its whole life.
func (d *daemon) stop() (cpu, rssMB float64, err error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, 0, err
	}
	exited := make(chan error, 1)
	go func() {
		<-d.done
		exited <- d.cmd.Wait()
	}()
	select {
	case err = <-exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-exited
		return 0, 0, errors.New("intervalsimd did not drain within 60s")
	}
	if err != nil {
		return 0, 0, fmt.Errorf("intervalsimd exit: %v: %s", err, d.stderr.String())
	}
	ps := d.cmd.ProcessState
	cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	return cpu, rssMB, nil
}

// answer is one request's outcome as the client saw it.
type answer struct {
	err       error   // why the request failed; nil when answered
	status    int     // HTTP status of the last exchange
	latency   float64 // seconds from send until the final answer
	serverDur float64 // job duration the server reported (simulate), seconds; <0 unknown
	body      []byte  // canonical answer bytes
}

// client issues mix requests over keep-alive loopback connections.
type client struct {
	hc   *http.Client
	base string
	tr   *Tracer
}

const pollInterval = time.Millisecond

// do sends one request and waits for its final answer: polling job state
// for simulate and sweep jobs, reading the NDJSON stream of a batch.
func (c *client) do(run string, r *mixRequest) answer {
	start := time.Now()
	root := c.tr.Begin(run, "request."+r.kind, 0)
	a := answer{serverDur: -1}
	var err error
	switch r.kind {
	case "model":
		a.body, a.status, err = c.exchange(run, root, "POST", r.path, r.body)
	case "simulate":
		a.body, a.serverDur, a.status, err = c.waitJob(run, root, r, "/v1/jobs/")
	case "batch":
		var raw []byte
		raw, a.status, err = c.exchange(run, root, "POST", r.path, r.body)
		if err == nil {
			a.body, err = canonicalBatch(raw)
		}
	case "sweepjob":
		a.body, _, a.status, err = c.waitJob(run, root, r, "/v1/sweepjobs/")
	}
	c.tr.End(root)
	a.latency = time.Since(start).Seconds()
	a.err = err
	return a
}

// exchange performs one HTTP request and returns the body of a 2xx answer.
func (c *client) exchange(run string, parent int, method, path string, body []byte) ([]byte, int, error) {
	sp := c.tr.Begin(run, "http "+method+" "+routeOf(path), parent)
	defer c.tr.End(sp)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return nil, resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, resp.StatusCode, nil
}

// routeOf collapses job IDs out of a path so span names stay few.
func routeOf(path string) string {
	parts := strings.Split(path, "/") // "", "v1", kind, id, ...
	if len(parts) > 3 && (parts[2] == "jobs" || parts[2] == "sweepjobs") {
		parts[3] = "{id}"
	}
	return strings.Join(parts, "/")
}

// waitJob submits an asynchronous job and polls it until it finishes. For
// a simulate job it returns the result document and the server-reported
// duration; for a sweep job it then fetches the CSV artifact.
func (c *client) waitJob(run string, root int, r *mixRequest, statePath string) ([]byte, float64, int, error) {
	raw, status, err := c.exchange(run, root, "POST", r.path, r.body)
	if err != nil {
		return nil, -1, status, err
	}
	var job service.JobView
	if err := json.Unmarshal(raw, &job); err != nil {
		return nil, -1, status, err
	}
	for job.Status == service.JobQueued || job.Status == service.JobRunning {
		time.Sleep(pollInterval)
		raw, status, err = c.exchange(run, root, "GET", statePath+job.ID, nil)
		if err != nil {
			return nil, -1, status, err
		}
		job = service.JobView{}
		if err := json.Unmarshal(raw, &job); err != nil {
			return nil, -1, status, err
		}
	}
	if job.Status != service.JobDone {
		return nil, -1, status, fmt.Errorf("job %s %s: %s", job.ID, job.Status, job.Error)
	}
	if r.kind == "sweepjob" {
		csv, status, err := c.exchange(run, root, "GET", "/v1/sweepjobs/"+job.ID+"/csv", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("sweep job %s CSV: HTTP %d", job.ID, status)
		}
		return csv, -1, status, err
	}
	dur := -1.0
	if job.Started != nil {
		dur = job.DurationMS / 1e3
	}
	return job.Result, dur, status, nil
}
