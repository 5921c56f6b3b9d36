package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the sample-count rule for a reported percentile: at least
// this many samples must lie above it, or the percentile is resting on
// a handful of outliers.
const minBeyond = 10

// quantile is one picked percentile with its sample counts.
type quantile struct {
	Value  float64
	N      int // samples the percentile was picked from
	Beyond int // samples strictly above its rank
}

// pick returns the q-quantile (0 < q ≤ 1) of samples by nearest rank:
// the ⌈q·n⌉-th smallest value. Beyond counts the samples ranked above
// it. An empty input gives a zero quantile.
func pick(samples []float64, q float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{}
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return quantile{Value: s[rank-1], N: n, Beyond: n - rank}
}

// Enough reports whether the percentile meets the sample-count rule.
func (q quantile) Enough() bool { return q.Beyond >= minBeyond }

// String renders the quantile with its sample counts for the notes.
func (q quantile) String() string {
	s := fmt.Sprintf("%.4f (n=%d, beyond=%d)", q.Value, q.N, q.Beyond)
	if !q.Enough() {
		s += " [fewer than 10 samples beyond]"
	}
	return s
}

// median is the 0.5 quantile's value.
func median(samples []float64) float64 { return pick(samples, 0.5).Value }

// mean is the arithmetic mean (0 for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// parseServerTiming reads a Server-Timing header value as antennad
// writes it ("plan;dur=1.250, orient;dur=80.000, other;dur=3.1,
// total;dur=84.4") into phase → milliseconds. Repeated phases add up;
// entries without a dur parameter count as zero; malformed durations are
// an error.
func parseServerTiming(h string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, entry := range strings.Split(h, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return nil, fmt.Errorf("server-timing entry %q has no name", entry)
		}
		var dur float64
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			d, err := strconv.ParseFloat(v, 64)
			if err != nil || d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("server-timing entry %q: bad dur %q", entry, v)
			}
			dur = d
		}
		out[name] += dur
	}
	return out, nil
}

// cpuClock reads the process's user+system CPU time.
func cpuClock() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// rusageCPU is the user+system time one getrusage reading holds.
func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuDelta is the CPU time spent between two readings, clamped at zero
// (the clock is monotonic; the clamp guards a failed read).
func cpuDelta(before, after time.Duration) time.Duration {
	return max(after-before, 0)
}

// tally counts attempted and failed operations and keeps the first few
// failure reasons for the notes.
type tally struct {
	attempted int
	failed    int
	reasons   []string
}

// maxReasons bounds the failure reasons a tally keeps.
const maxReasons = 8

func (t *tally) ok() { t.attempted++ }

// fail counts one failed attempt.
func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failCheck(format, args...)
}

// failCheck marks an already attempted operation as failed by a later
// check (the post-window decodes), without counting a new attempt.
func (t *tally) failCheck(format string, args ...any) {
	t.failed = min(t.failed+1, max(t.attempted, 1))
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < maxReasons {
			t.reasons = append(t.reasons, r)
		}
	}
}

// frac is failed / attempted.
func (t tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// runtimeCounters samples the Go runtime's cumulative allocation and
// CPU-class counters.
type runtimeCounters struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		c.totalCPU = s[2].Value.Float64()
	}
	return c
}

// liveHeapMiB forces collections and returns the live heap in MiB. The
// second collection frees what the first left in sync.Pool victim
// caches, so the figure holds only what the program keeps live.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMiB is the process's peak resident set (VmHWM), or 0 when
// /proc is unavailable.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// describeHost records the box a row ran on.
func describeHost(workload string, seed int64, commit string) string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s seed=%d workload=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), commit, seed, workload)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
