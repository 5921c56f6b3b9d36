package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

func TestPickNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[len(s)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct {
		q            float64
		want         float64
		beyond       int
		enoughBeyond bool
	}{
		{0.5, 50, 50, true},
		{0.9, 90, 10, true},
		{0.95, 95, 5, false},
		{1, 100, 0, false},
	} {
		got := pick(s, c.q)
		if got.Value != c.want || got.Beyond != c.beyond || got.N != 100 || got.Enough() != c.enoughBeyond {
			t.Errorf("pick(1..100, %v) = %+v (enough %v), want value %v beyond %d enough %v",
				c.q, got, got.Enough(), c.want, c.beyond, c.enoughBeyond)
		}
	}
	if s[0] != 100 {
		t.Error("pick sorted its input in place")
	}
	// The sample-count rule: p90 of 99 samples has only 9 beyond it.
	if q := pick(s[:99], 0.9); q.Enough() || q.Beyond != 9 {
		t.Errorf("pick(99 samples, 0.9) = %+v, want 9 beyond and not enough", q)
	}
	if q := pick(nil, 0.5); q.Value != 0 || q.N != 0 {
		t.Errorf("pick(nil) = %+v, want zero", q)
	}
	if q := pick([]float64{7}, 0.9); q.Value != 7 || q.Beyond != 0 {
		t.Errorf("pick([7], 0.9) = %+v", q)
	}
	if !strings.Contains(pick(s[:50], 0.9).String(), "fewer than 10") {
		t.Error("String does not flag a percentile short of samples")
	}
}

func TestParseServerTiming(t *testing.T) {
	got, err := parseServerTiming("cache;dur=0.010, plan;dur=1.5, orient;dur=80.250, plan;dur=0.5, other;dur=3.000, total;dur=85.260")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cache": 0.01, "plan": 2, "orient": 80.25, "other": 3, "total": 85.26}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("phase %s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got phases %v, want %v", got, want)
	}
	if got, err := parseServerTiming(`miss, wal;desc="x";dur=2`); err != nil || got["miss"] != 0 || got["wal"] != 2 {
		t.Errorf("entries without dur / with desc: %v, %v", got, err)
	}
	for _, bad := range []string{"orient;dur=abc", "orient;dur=-1", ";dur=1", "x;dur=NaN"} {
		if _, err := parseServerTiming(bad); err == nil {
			t.Errorf("parseServerTiming(%q) accepted a malformed entry", bad)
		}
	}

	// The header antennad writes: its phases sum to its total.
	tr := obs.NewTrace("t")
	ctx := obs.WithTrace(context.Background(), tr)
	_, end := obs.StartSpan(ctx, "orient")
	time.Sleep(2 * time.Millisecond)
	end()
	phases, err := parseServerTiming(tr.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if phases["orient"] < 2 || math.Abs(phases["orient"]+phases["other"]-phases["total"]) > 0.01 {
		t.Errorf("server header phases %v do not add up", phases)
	}
}

func TestRusageCPU(t *testing.T) {
	ru := syscall.Rusage{
		Utime: syscall.Timeval{Sec: 1, Usec: 500000},
		Stime: syscall.Timeval{Sec: 0, Usec: 250000},
	}
	if got := rusageCPU(&ru); got != 1750*time.Millisecond {
		t.Errorf("rusageCPU = %v, want 1.75s", got)
	}
	if got := cpuDelta(2*time.Second, time.Second); got != 0 {
		t.Errorf("cpuDelta of a backwards clock = %v, want 0", got)
	}
	if got := cpuDelta(time.Second, 3*time.Second); got != 2*time.Second {
		t.Errorf("cpuDelta = %v, want 2s", got)
	}
	before := cpuClock()
	deadline := time.Now().Add(30 * time.Millisecond)
	x := 0.0
	for time.Now().Before(deadline) {
		x += math.Sqrt(x + 1)
	}
	if d := cpuDelta(before, cpuClock()); d <= 0 || x == 0 {
		t.Errorf("30ms of spinning read %v of CPU", d)
	}
}

func TestTally(t *testing.T) {
	var a tally
	a.ok()
	a.ok()
	a.fail("op %d", 3)
	if a.attempted != 3 || a.failed != 1 || a.reasons[0] != "op 3" {
		t.Fatalf("tally after 2 ok + 1 fail = %+v", a)
	}
	a.failCheck("late check")
	if a.attempted != 3 || a.failed != 2 {
		t.Errorf("failCheck must not count an attempt: %+v", a)
	}
	for i := 0; i < 5; i++ {
		a.failCheck("more")
	}
	if a.failed != a.attempted {
		t.Errorf("failed %d exceeds attempted %d", a.failed, a.attempted)
	}
	var b tally
	for i := 0; i < 2*maxReasons; i++ {
		b.fail("b")
	}
	b.merge(a)
	if b.attempted != 2*maxReasons+3 || b.failed != 2*maxReasons+3 || len(b.reasons) != maxReasons {
		t.Errorf("merged tally = attempted %d failed %d reasons %d", b.attempted, b.failed, len(b.reasons))
	}
	if f := (tally{attempted: 4, failed: 1}).frac(); f != 0.25 {
		t.Errorf("frac = %v", f)
	}
	if f := (tally{}).frac(); f != 0 {
		t.Errorf("empty frac = %v", f)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke runs check.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts a run reported exactly the spec's metrics with
// their units.
func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		got, ok := res.metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("metric %s = %+v, want unit %s and a finite value", m.Name, got, m.Unit)
		}
	}
	for name := range res.metrics {
		if !slices.Contains(names, name) {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

func smokeConfig(t *testing.T, name string) config {
	wl, ok := workloads[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return config{workload: wl, seed: 3, window: time.Second, workdir: t.TempDir()}
}

// TestSmoke runs every workload of BENCHMARK.json for one second and
// requires a correct run reporting exactly the end-to-end metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs start servers and solve n=20000 pointsets")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runMeasured(smokeConfig(t, w.Name))
			if err != nil {
				t.Fatal(err)
			}
			if l := res.line(); !l.Correct || l.Failed != 0 || l.Attempted < 1 {
				t.Fatalf("run not correct: %+v, notes %v", l, res.notes)
			}
			checkMetrics(t, res, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if res.metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.metrics[m.Name].Value)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced run on the cheapest workload and
// requires every per-layer metric and the span dump.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run replays n=20000 solves")
	}
	spec := loadSpec(t)
	cfg := smokeConfig(t, "orient-cold")
	res, err := runTraced(cfg, "test-host")
	if err != nil {
		t.Fatal(err)
	}
	if l := res.line(); !l.Correct || l.Failed != 0 {
		t.Fatalf("traced run not correct: %+v, notes %v", l, res.notes)
	}
	checkMetrics(t, res, spec.PerLayer)
	data, err := os.ReadFile(cfg.spanPath())
	if err != nil {
		t.Fatal(err)
	}
	var dump spanDump
	if err := json.Unmarshal(data, &dump); err != nil || dump.Host != "test-host" || len(dump.Spans) == 0 {
		t.Fatalf("span dump: %v, host %q, %d spans", err, dump.Host, len(dump.Spans))
	}
	for _, s := range dump.Spans {
		if s.TraceID == "" || s.EndMS < s.StartMS || !strings.Contains(s.ServerTiming, "total;dur=") {
			t.Errorf("bad span %+v", s)
		}
	}
}

// TestChurnFallbackCounted serves instances whose repair is disabled, so
// every patch full-solves: each patch is still a correct revision, but
// the run fails the fallback bound.
func TestChurnFallbackCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("full solves of n=20000 instances")
	}
	eng := service.NewEngine(service.Options{RepairThreshold: -1})
	defer eng.Close()
	ts := httptest.NewServer(service.NewServer(eng).Handler())
	defer ts.Close()
	h := &harness{base: ts.URL}
	s := &churnScenario{insts: newChurnInstances(5, 1, 3)}
	if err := s.setup(h); err != nil {
		t.Fatal(err)
	}
	c := newClient(0, ts.URL, time.Now())
	defer c.http.CloseIdleConnections()
	for s.run(c) {
	}
	if c.rec.tally.failed != 0 || len(c.rec.lat) != 3 || s.insts[0].fulls != 3 {
		t.Fatalf("patches: %+v, %d ok, %d fallbacks", c.rec.tally, len(c.rec.lat), s.insts[0].fulls)
	}
	res := newResult()
	s.check(h, res)
	if res.tally.failed != 1 || !strings.Contains(strings.Join(res.tally.reasons, "|"), "3 of 3 patches fell back") {
		t.Errorf("check after 3 fallbacks: %+v", res.tally)
	}
}
