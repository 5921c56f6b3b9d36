package main

import (
	"bytes"
	"errors"
	"runtime"
	"time"
)

// setupRounds is how many times a measured run sets the server up from
// scratch; setup_s is the median.
const setupRounds = 3

// setUp starts a fresh server and warms it up rounds times, timing each
// round, and returns the last server still running.
func setUp(cfg config, sc scenario, rounds int) (*harness, []float64, error) {
	var times []float64
	var h *harness
	for r := 0; r < rounds; r++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, nil, err
			}
			runtime.GC() // free the previous round's server before the next
		}
		start := time.Now()
		var err error
		if h, err = startHarness(cfg, cfg.workload.wal); err != nil {
			return nil, nil, err
		}
		if err := sc.setup(h); err != nil {
			return nil, nil, errors.Join(err, h.close())
		}
		times = append(times, time.Since(start).Seconds())
	}
	return h, times, nil
}

// segment is what one closed-loop stretch measured.
type segment struct {
	elapsed time.Duration
	cpu     time.Duration
}

// loop runs the client closed-loop until the deadline or until the
// inputs run out.
func loop(sc scenario, c *client, d time.Duration) segment {
	start := time.Now()
	cpu0 := cpuClock()
	deadline := start.Add(d)
	for time.Now().Before(deadline) && sc.run(c) {
	}
	return segment{elapsed: time.Since(start), cpu: cpuDelta(cpu0, cpuClock())}
}

// closeClient drops the client's connections and response buffer, so
// the live heap measured afterwards is the server's.
func closeClient(c *client) {
	c.http.CloseIdleConnections()
	c.buf = bytes.Buffer{}
}

// windowSegments is how many consecutive stretches the measured window
// is split into. Each timed metric is the median over the stretches, so
// a slowdown of the shared host that covers fewer than half of them
// does not move it.
const windowSegments = 5

// runMeasured is the untraced run: it reports every end-to-end metric.
func runMeasured(cfg config) (*result, error) {
	sc := cfg.workload.build(cfg.seed, cfg.window)
	h, setups, err := setUp(cfg, sc, setupRounds)
	if err != nil {
		return nil, err
	}
	c := newClient(0, h.base, time.Now())
	var rec record
	var elapsed time.Duration
	var tput, cpuPerOp, p50s, p90s []float64
	for i := 0; i < windowSegments; i++ {
		r := &record{}
		c.rec = r
		seg := loop(sc, c, cfg.window/windowSegments)
		rec.merge(r)
		elapsed += seg.elapsed
		if len(r.lat) == 0 {
			break // the inputs ran out
		}
		ops := float64(len(r.lat))
		tput = append(tput, ops/seg.elapsed.Seconds())
		cpuPerOp = append(cpuPerOp, ms(seg.cpu)/ops)
		p50s = append(p50s, pick(r.lat, 0.5).Value)
		p90s = append(p90s, pick(r.lat, 0.9).Value)
	}
	closeClient(c)

	res := newResult()
	res.tally = rec.tally
	sc.settle(h, res)
	sc.check(h, res)
	sc.release()
	heap := liveHeapMiB()
	if err := h.close(); err != nil {
		return nil, err
	}

	res.set("setup_s", "s", median(setups))
	res.set("throughput_ops_s", "ops/s", median(tput))
	res.set("latency_p50_ms", "ms", median(p50s))
	res.set("latency_p90_ms", "ms", median(p90s))
	res.set("cpu_ms_per_op", "ms", median(cpuPerOp))
	res.set("heap_live_mb", "MiB", heap)

	res.note("window: %.3fs in %d segments, %d primary ops ok", elapsed.Seconds(), len(tput), len(rec.lat))
	if elapsed < cfg.window {
		res.note("the pre-encoded inputs ran out: the window ended early")
	}
	res.note("setup_s rounds: %.4f", setups)
	res.note("peak RSS: %.0f MiB", peakRSSMiB())
	res.note("throughput_ops_s segments: %.4f", tput)
	res.note("cpu_ms_per_op segments: %.4f", cpuPerOp)
	res.note("latency_p50_ms segments: %.4f; whole window %s", p50s, pick(rec.lat, 0.5))
	res.note("latency_p90_ms segments: %.4f; whole window %s", p90s, pick(rec.lat, 0.9))
	if len(rec.read) > 0 {
		res.note("read_p50_ms (delta GET, not gated): %s", pick(rec.read, 0.5))
	}
	noteFailures(res)
	return res, nil
}

// noteFailures adds fail_frac and the first failure reasons to the notes.
func noteFailures(res *result) {
	t := res.tally
	res.note("fail_frac: %.6f (%d of %d attempted)", t.frac(), t.failed, t.attempted)
	for _, r := range t.reasons {
		res.note("failure: %s", r)
	}
}
