package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevel is the highest of p99.9, p99 and p90 that leaves at least ten
// samples above it among n, or the maximum (1.0) when even p90 does not.
func tailLevel(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 1
}

// tail is the quantile of xs at tailLevel(len(xs)).
func tail(xs []float64) float64 { return quantile(xs, tailLevel(len(xs))) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuSeconds is the user+sys CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// resetPeakRSS returns freed memory to the OS and restarts this process's
// peak-RSS high-water mark, so a pass starts from the footprint a fresh
// process would have and peakRSSMB covers that pass alone.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

var vmHWM = regexp.MustCompile(`(?m)^VmHWM:\s+(\d+) kB`)

// peakRSSMB is this process's peak resident set size since the last
// resetPeakRSS, in MB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	m := vmHWM.FindSubmatch(status)
	if m == nil {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024, err
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// stealSeconds is the CPU time the hypervisor has taken from this machine's
// vCPUs since boot (the steal column of /proc/stat, in USER_HZ = 100 ticks
// per second), or -1 where it is not reported. A run records how much it
// lost this way, since other guests' load slows every timing it makes.
func stealSeconds() float64 {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100
}

// calibrationMS times a fixed integer loop, in milliseconds. A run records
// it before and after its work: on a shared host the same work can take
// tens of percent longer from one minute to the next, and this shows how
// fast the host was while the run measured.
func calibrationMS() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = splitmix(x)
	}
	calibrationSink = x
	return float64(time.Since(start).Microseconds()) / 1e3
}

// calibrationSink keeps the calibration loop from being optimised away.
var calibrationSink uint64
