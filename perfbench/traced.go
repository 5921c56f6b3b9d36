package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/antenna"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/instance"
	"repro/internal/mst"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/solution"
	"repro/internal/verify"
)

// tracedQuarters splits the traced run's window into alternating
// untraced and traced stretches, so both see the same server state on
// average; the gap between them is the tracing overhead.
const tracedQuarters = 4

// churnReplayBatches is how many batches the replay applies per class.
const churnReplayBatches = 10

// planReps repeats the microsecond-scale planner call per sample.
const planReps = 200

// serverPhases are the Server-Timing phases reported per primary op;
// splice and verify_inc are children of repair, which Server-Timing
// folds into their parent, so they come from the server's trace ring.
var serverPhases = []string{"orient", "verify", "fill", "repair", "wal", "other", "total"}

// runTraced is the traced run: the workload's closed loop with a span
// per request, then a serial replay of a fixed sample of inputs through
// each layer's public functions. It reports the per-layer metrics.
func runTraced(cfg config, host string) (*result, error) {
	sc := cfg.workload.build(cfg.seed, cfg.window)
	h, setups, err := setUp(cfg, sc, 1)
	if err != nil {
		return nil, err
	}
	c := newClient(0, h.base, time.Now())
	var recs [2]record // untraced, traced
	var elapsed [2]time.Duration
	hits0, misses0 := h.eng.Cache().Stats()
	rt0 := readRuntime()
	for q := 0; q < tracedQuarters; q++ {
		t := q % 2
		c.traced, c.rec = t == 1, &recs[t]
		elapsed[t] += loop(sc, c, cfg.window/tracedQuarters).elapsed
	}
	rt1 := readRuntime()
	hits1, misses1 := h.eng.Cache().Stats()
	closeClient(c)
	plain, traced := recs[0], recs[1]
	res := newResult()
	res.tally.merge(plain.tally)
	res.tally.merge(traced.tally)
	sc.check(h, res)
	children := patchChildPhases(h.api)
	sample := sc.solveSample()
	sc.release()
	if err := h.close(); err != nil {
		return nil, err
	}

	// Closed-loop layer metrics.
	ops := float64(len(traced.lat))
	for _, p := range serverPhases {
		res.set("server_timing."+p+"_ms", "ms", traced.timing[p]/max(float64(traced.timed), 1))
	}
	for p, v := range children {
		res.set("server_timing."+p+"_ms", "ms", v)
	}
	res.set("service.request_bytes", "bytes", float64(traced.reqBytes)/max(ops, 1))
	res.set("service.response_bytes", "bytes", float64(traced.respBytes)/max(ops, 1))
	hits, lookups := float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)
	res.set("solution.cache_hit_ratio", "ratio", hits/max(lookups, 1))
	allOps := float64(len(plain.lat) + len(traced.lat))
	res.set("runtime.alloc_mb_per_op", "MiB", float64(rt1.allocBytes-rt0.allocBytes)/(1<<20)/max(allOps, 1))
	res.set("runtime.gc_cpu_frac", "ratio", (rt1.gcCPU-rt0.gcCPU)/max(rt1.totalCPU-rt0.totalCPU, 1e-9))
	res.set("trace.overhead_frac", "ratio", mean(traced.lat)/max(mean(plain.lat), 1e-9)-1)
	res.note("setup_s (one round): %.4f", setups[0])
	res.note("closed loop: untraced %d ops in %.3fs, traced %d ops in %.3fs; cache lookups %.0f",
		len(plain.lat), elapsed[0].Seconds(), len(traced.lat), elapsed[1].Seconds(), lookups)

	// Serial replays through the layers.
	if err := replaySolve(cfg, sample, cfg.workload.name == "orient-hot", res); err != nil {
		return nil, err
	}
	if err := replayChurn(cfg, res); err != nil {
		return nil, err
	}
	if err := writeSpans(cfg, host, traced.spans); err != nil {
		return nil, err
	}
	res.note("spans: %d written to %s", len(traced.spans), cfg.spanPath())
	noteFailures(res)
	return res, nil
}

// patchChildPhases averages the splice and verify_inc spans over the
// PATCH traces still in the server's /debug/traces ring (zero when the
// ring holds none).
func patchChildPhases(api *service.Server) map[string]float64 {
	sum := map[string]float64{"splice": 0, "verify_inc": 0}
	n := 0
	for _, tv := range api.Traces().Snapshot().Recent {
		isPatch := false
		for _, a := range tv.Attrs {
			if a.Key == "route" && strings.HasPrefix(a.Value, "PATCH ") {
				isPatch = true
			}
		}
		if !isPatch {
			continue
		}
		n++
		for _, s := range tv.Spans {
			if _, ok := sum[s.Name]; ok {
				sum[s.Name] += s.DurMS
			}
		}
	}
	for k := range sum {
		sum[k] /= max(float64(n), 1)
	}
	return sum
}

// timed runs f and returns its wall and process CPU time in ms.
func timed(f func()) (wall, cpu float64) {
	c0, t0 := cpuClock(), time.Now()
	f()
	return ms(time.Since(t0)), ms(cpuDelta(c0, cpuClock()))
}

// replaySolve replays each sample pointset serially (see replayOne)
// and reports the medians over the sample.
func replaySolve(cfg config, items []solveItem, hot bool, res *result) (err error) {
	h, err := startHarness(cfg, false)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, h.close()) }()
	c := newClient(-20, h.base, time.Now())
	defer c.http.CloseIdleConnections()
	m := map[string][]float64{}
	add := func(name string, v float64) { m[name] = append(m[name], v) }
	for i, it := range items {
		if err := replayOne(c, it, hot, add); err != nil {
			return fmt.Errorf("solve replay %d: %w", i, err)
		}
	}
	for _, x := range []struct{ metric, key, unit string }{
		{"service.http_self_ms", "http_self", "ms"},
		{"service.solve_hit_ms", "hit", "ms"},
		{"service.solve_miss_ms", "miss", "ms"},
		{"service.solve_miss_cpu_ms", "miss_cpu", "ms"},
		{"service.solve_unattributed_cpu_ms", "unattributed", "ms"},
		{"solution.digest_ms", "digest", "ms"},
		{"solution.encode_json_ms", "enc_json", "ms"},
		{"solution.encode_binary_ms", "enc_bin", "ms"},
		{"plan.plan_us", "plan", "us"},
		{"delaunay.build_ms", "delaunay", "ms"},
		{"mst.euclidean_ms", "emst", "ms"},
		{"core.orient_cover_ms", "orient_cover", "ms"},
		{"core.orient_tworay_ms", "orient_tworay", "ms"},
		{"antenna.induced_digraph_ms", "digraph", "ms"},
		{"verify.check_ms", "verify", "ms"},
	} {
		res.set(x.metric, x.unit, median(m[x.key]))
		if len(m[x.key]) == 0 {
			res.note("%s: no samples", x.metric)
		}
	}
	res.note("solve replay: medians over %d pointsets", len(items))
	return nil
}

// replayOne times one pointset through the layers, serially: a lone
// Engine.Solve miss and hit on a fresh engine; the planner; the digest
// and both encoders; Delaunay, EMST, the orienter, the induced digraph
// and the verifier on their own; then the same body over HTTP on the
// replay server, miss then hit. The solve's CPU not covered by the
// layers it calls in sequence (digest, plan, orient, verify) is the
// unattributed remainder.
func replayOne(c *client, it solveItem, hot bool, add func(string, float64)) error {
	req := service.Request{Pts: it.pts, K: it.b.k, Phi: it.b.phi, Algo: it.b.algo}
	eng := service.NewEngine(antennadOptions(""))
	defer eng.Close()
	ctx := context.Background()
	var sol *solution.Solution
	var src service.CacheSource
	var err error
	missW, missC := timed(func() { sol, src, err = eng.Solve(ctx, req) })
	if err != nil || src != service.SourceMiss || !sol.Verified {
		return fmt.Errorf("solve miss: source %v, err %v", src, err)
	}
	hitW, _ := timed(func() { _, src, err = eng.Solve(ctx, req) })
	if err != nil || src != service.SourceMemory {
		return fmt.Errorf("solve hit: source %v, err %v", src, err)
	}
	add("miss", missW)
	add("miss_cpu", missC)
	add("hit", hitW)
	var planUS float64
	if it.b.algo == "" {
		w, _ := timed(func() {
			for r := 0; r < planReps && err == nil; r++ {
				_, err = eng.Plan(plan.Objective{}, it.b.k, it.b.phi)
			}
		})
		if err != nil {
			return fmt.Errorf("plan: %w", err)
		}
		planUS = w * 1000 / planReps
		add("plan", planUS)
	}

	digestW, _ := timed(func() { solution.Digest(it.pts) })
	encJ, _ := timed(func() { _, err = sol.EncodeJSON() })
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	encB, _ := timed(func() { sol.EncodeBinary() })
	add("digest", digestW)
	add("enc_json", encJ)
	add("enc_bin", encB)

	buildW, _ := timed(func() { _, err = delaunay.Build(it.pts) })
	if err != nil {
		return fmt.Errorf("delaunay: %w", err)
	}
	var tree *mst.Tree
	emstW, _ := timed(func() { tree = mst.Euclidean(it.pts) })
	add("delaunay", buildW)
	add("emst", emstW)

	o, ok := core.LookupOrienter(sol.Algo)
	if !ok {
		return fmt.Errorf("orienter %q not registered", sol.Algo)
	}
	guar, ok := o.Guarantee(it.b.k, it.b.phi)
	if !ok {
		return fmt.Errorf("orienter %q has no guarantee at k=%d phi=%v", sol.Algo, it.b.k, it.b.phi)
	}
	var asg *antenna.Assignment
	orientW, orientC := timed(func() { asg, _, err = o.Orient(it.pts, it.b.k, it.b.phi) })
	if err != nil {
		return fmt.Errorf("orient: %w", err)
	}
	add("orient_"+sol.Algo, orientW)
	digraphW, _ := timed(func() { asg.InducedDigraph() })
	add("digraph", digraphW)
	budgets := plan.VerifyBudgets(guar)
	budgets.KnownLMax = tree.LMax()
	var rep *verify.Report
	checkW, checkC := timed(func() { rep = verify.Check(asg, budgets) })
	if !rep.OK() {
		return fmt.Errorf("verify: %v", rep.Errors)
	}
	add("verify", checkW)
	add("unattributed", missC-(digestW+planUS/1000+orientC+checkC))

	in := newOrientInput(it.pts, it.b)
	rm, err := c.orient(in, formatJSON, "miss")
	if err != nil {
		return err
	}
	rh, err := c.orient(in, formatJSON, "memory")
	if err != nil {
		return err
	}
	if hot {
		add("http_self", ms(rh.Wall)-hitW)
	} else {
		add("http_self", ms(rm.Wall)-missW)
	}
	return nil
}

// replayChurn replays the first batches of one instance per repair
// class on a fresh server with a WAL. Each class gets twin instances:
// one is patched over HTTP, the other through Server.Instances().Apply
// with the same batches, so the PATCH round trip minus Apply is the
// HTTP layer's own share.
func replayChurn(cfg config, res *result) (err error) {
	h, err := startHarness(cfg, true)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, h.close()) }()
	c := newClient(-30, h.base, time.Now())
	defer c.http.CloseIdleConnections()
	mgr := h.api.Instances()
	ctx := context.Background()
	m := map[string][]float64{}
	add := func(name string, v float64) { m[name] = append(m[name], v) }
	var patches, incremental int
	var walGrowth int64
	for _, in := range newChurnInstances(cfg.seed, len(churnClasses), churnReplayBatches) {
		b := instance.Budget{K: in.b.k, Phi: in.b.phi, Algo: in.b.algo}
		twin := in.id + "-twin"
		createW, _ := timed(func() { _, err = mgr.Create(ctx, in.id, in.pts, b) })
		if err != nil {
			return fmt.Errorf("create %s: %w", in.id, err)
		}
		add("create", createW)
		if _, err := mgr.Create(ctx, twin, in.pts, b); err != nil {
			return fmt.Errorf("create %s: %w", twin, err)
		}
		wal0 := h.walBytes()
		for j := range in.batches {
			rep, perr := c.patch(in)
			if rep.Status != 200 {
				return fmt.Errorf("replay patch: %w", perr)
			}
			patches++
			if rep.Header.Get("X-Repair") == instance.RepairIncremental {
				incremental++
			}
			if perr != nil {
				res.tally.fail("replay: %v", perr)
			} else {
				res.tally.ok()
			}
			var snap *instance.Snapshot
			applyW, _ := timed(func() { snap, err = mgr.Apply(ctx, twin, 0, in.batches[j]) })
			if err != nil || snap.Rev != in.rev || !snap.Sol.Verified {
				return fmt.Errorf("apply %s batch %d: %v", twin, j, err)
			}
			add("apply", applyW)
			add("apply_"+in.class, applyW)
			add("patch_self", ms(rep.Wall)-applyW)
			var delta []byte
			deltaW, _ := timed(func() { delta, err = mgr.Delta(twin, 0) })
			if err != nil {
				return fmt.Errorf("delta %s: %w", twin, err)
			}
			add("delta_us", deltaW*1000)
			add("delta_bytes", float64(len(delta)))
			rd, err := c.readDelta(in, 0)
			if err != nil {
				return fmt.Errorf("replay read: %w", err)
			}
			add("read", ms(rd.Wall))
		}
		walGrowth += h.walBytes() - wal0
	}
	for _, x := range []struct{ metric, key, unit string }{
		{"instance.create_ms", "create", "ms"},
		{"instance.apply_ms", "apply", "ms"},
		{"instance.apply_emst_ms", "apply_emst", "ms"},
		{"instance.apply_tour_ms", "apply_tour", "ms"},
		{"instance.apply_bats_ms", "apply_bats", "ms"},
		{"instance.delta_us", "delta_us", "us"},
		{"solution.delta_bytes", "delta_bytes", "bytes"},
		{"service.patch_self_ms", "patch_self", "ms"},
		{"service.delta_read_ms", "read", "ms"},
	} {
		res.set(x.metric, x.unit, median(m[x.key]))
	}
	res.set("instance.incremental_ratio", "ratio", float64(incremental)/max(float64(patches), 1))
	res.set("instance.wal_bytes_per_rev", "bytes", float64(walGrowth)/max(float64(2*patches), 1))
	res.note("churn replay: %d classes x %d batches, medians", len(churnClasses), churnReplayBatches)
	return nil
}

// spanDump is the traced run's span file.
type spanDump struct {
	Host  string `json:"host"`
	Spans []span `json:"spans"`
}

// writeSpans writes the spans kept in memory during the traced loop.
func writeSpans(cfg config, host string, spans []span) error {
	data, err := json.Marshal(spanDump{Host: host, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.spanPath(), data, 0o644)
}
