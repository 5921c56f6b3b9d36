package service

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/plan"
	"repro/internal/pointset"
	"repro/internal/verify"
)

func uniformPts(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	return pointset.Uniform(rng, n, 10)
}

// workloadPts mirrors the server's gen request path exactly.
func workloadPts(kind string, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	return pointset.Workload(kind, rng, n)
}

// TestSolveVerifiedArtifact: a plain solve produces a verified artifact
// whose measurements respect the attached guarantee.
func TestSolveVerifiedArtifact(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(120, 1)
	sol, hit, err := eng.Solve(context.Background(), Request{Pts: pts, K: 2, Phi: math.Pi, Algo: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Hit() {
		t.Fatal("first solve reported a cache hit")
	}
	if !sol.Verified {
		t.Fatalf("artifact not verified: %v %v", sol.VerifyErrors, sol.Violations)
	}
	if sol.N != 120 || sol.K != 2 || sol.Phi != math.Pi || sol.Algo != "table1" {
		t.Fatalf("artifact header mismatch: %+v", sol)
	}
	if sol.RadiusRatio > sol.Guarantee.Stretch+1e-7 {
		t.Fatalf("measured ratio %.4f exceeds guarantee %.4f", sol.RadiusRatio, sol.Guarantee.Stretch)
	}
	// The artifact must reconstruct into a verifiable assignment.
	asg, err := sol.Assignment(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !verify.CheckStrong(asg) {
		t.Fatal("reconstructed assignment not strongly connected")
	}
}

// TestSolveCacheHitByteIdentical: the repeated request must hit the
// cache and encode to byte-identical artifacts in both codecs.
func TestSolveCacheHitByteIdentical(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(90, 2)
	req := Request{Pts: pts, K: 2, Phi: 0, Algo: "tworay"}
	s1, hit1, err := eng.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	s2, hit2, err := eng.Solve(context.Background(), Request{Pts: append([]geom.Point(nil), pts...), K: 2, Phi: 0, Algo: "tworay"})
	if err != nil {
		t.Fatal(err)
	}
	if hit1.Hit() || hit2 != SourceMemory {
		t.Fatalf("cache sources: first=%v second=%v, want miss/memory", hit1, hit2)
	}
	j1, _ := s1.EncodeJSON()
	j2, _ := s2.EncodeJSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("cached artifact JSON differs from computed artifact")
	}
	if !bytes.Equal(s1.EncodeBinary(), s2.EncodeBinary()) {
		t.Fatal("cached artifact binary differs from computed artifact")
	}
}

// TestSolveCacheMissOnDifferentRequest: budget, algorithm, objective, or
// pointset changes must all miss.
func TestSolveCacheMissOnDifferentRequest(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(60, 3)
	ctx := context.Background()
	if _, _, err := eng.Solve(ctx, Request{Pts: pts, K: 2, Phi: 0, Algo: "tworay"}); err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]Request{
		"different k":      {Pts: pts, K: 3, Phi: 0, Algo: "table1"},
		"different phi":    {Pts: pts, K: 2, Phi: 0.5, Algo: "tworay"},
		"different algo":   {Pts: pts, K: 2, Phi: 0, Algo: "tour"},
		"planner mode":     {Pts: pts, K: 2, Phi: 0},
		"different points": {Pts: uniformPts(60, 4), K: 2, Phi: 0, Algo: "tworay"},
	} {
		_, hit, err := eng.Solve(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hit.Hit() {
			t.Fatalf("%s: unexpectedly hit the cache", name)
		}
	}
}

// TestSolvePlannerPath: with no algorithm named, the engine plans by
// objective — tworay on the (k=2, φ=0) budget, a symmetric-capable
// orienter when symmetric connectivity is demanded — and records the
// decision in the artifact.
func TestSolvePlannerPath(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(80, 5)
	ctx := context.Background()

	sol, _, err := eng.Solve(ctx, Request{Pts: pts, K: 2, Phi: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Planned || sol.Algo != "tworay" {
		t.Fatalf("planner chose %q (planned=%v), want tworay", sol.Algo, sol.Planned)
	}
	if !sol.Verified {
		t.Fatalf("planned artifact not verified: %v", sol.VerifyErrors)
	}

	sym := plan.Objective{Conn: core.ConnSymmetric, Minimize: plan.MinStretch}
	sol, _, err = eng.Solve(ctx, Request{Pts: pts, K: 1, Phi: math.Pi, Objective: sym})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Algo != "bats" || sol.Guarantee.Conn != "symmetric" {
		t.Fatalf("symmetric objective chose %q (conn %s), want bats/symmetric", sol.Algo, sol.Guarantee.Conn)
	}
	if !sol.Verified {
		t.Fatalf("symmetric artifact not verified: %v", sol.VerifyErrors)
	}
}

// TestSolveRejectsBadRequests: invalid budgets and unknown orienters
// error out before any orientation work.
func TestSolveRejectsBadRequests(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(10, 6)
	ctx := context.Background()
	for name, req := range map[string]Request{
		"k=0":           {Pts: pts, K: 0, Phi: 0},
		"negative phi":  {Pts: pts, K: 1, Phi: -1},
		"NaN phi":       {Pts: pts, K: 1, Phi: math.NaN()},
		"unknown algo":  {Pts: pts, K: 1, Phi: 0, Algo: "nope"},
		"out of region": {Pts: pts, K: 1, Phi: 0, Algo: "k1"},
	} {
		if _, _, err := eng.Solve(ctx, req); err == nil {
			t.Fatalf("%s: solve succeeded", name)
		}
	}
}

// TestSolveRacedObjective: a racing objective must produce a verified
// artifact reusing the race winner's run (no second orientation), and
// artifacts raced under different deadlines must not alias in the cache.
func TestSolveRacedObjective(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(70, 9)
	ctx := context.Background()
	obj := plan.Objective{Conn: core.ConnStrong, Minimize: plan.MinStretch, Deadline: 30 * time.Second}
	sol, _, err := eng.Solve(ctx, Request{Pts: pts, K: 2, Phi: 0, Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Verified || !sol.Planned {
		t.Fatalf("raced artifact verified=%v planned=%v: %v", sol.Verified, sol.Planned, sol.VerifyErrors)
	}
	if eng.Metrics().Races.Load() != 1 {
		t.Fatalf("races counter %d, want 1", eng.Metrics().Races.Load())
	}
	// A different deadline is a different objective key: must miss.
	obj2 := obj
	obj2.Deadline = 29 * time.Second
	_, hit, err := eng.Solve(ctx, Request{Pts: pts, K: 2, Phi: 0, Objective: obj2})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Hit() {
		t.Fatal("artifacts raced under different deadlines aliased one cache slot")
	}
	// Same deadline: hit.
	_, hit, err = eng.Solve(ctx, Request{Pts: pts, K: 2, Phi: 0, Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Hit() {
		t.Fatal("repeated raced request missed the cache")
	}
}

// TestSolveRejectsHugeK: the codec stores k in 16 bits; the engine must
// refuse budgets that would truncate.
func TestSolveRejectsHugeK(t *testing.T) {
	eng := NewEngine(Options{})
	if _, _, err := eng.Solve(context.Background(), Request{Pts: uniformPts(10, 1), K: 65537, Phi: 0}); err == nil {
		t.Fatal("k=65537 accepted")
	}
}

// TestSolveBatchedMatchesUnbatched: the coalescing batcher must produce
// exactly the artifacts the inline path produces.
func TestSolveBatchedMatchesUnbatched(t *testing.T) {
	inline := NewEngine(Options{})
	batched := NewEngine(Options{BatchWindow: time.Millisecond, MaxBatch: 8})
	defer batched.Close()
	ctx := context.Background()

	reqs := make([]Request, 12)
	for i := range reqs {
		reqs[i] = Request{Pts: uniformPts(40+i, int64(100+i)), K: 1 + i%3, Phi: float64(i%2) * math.Pi, Algo: "table1"}
	}
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		sol, _, err := inline.Solve(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = sol.EncodeJSON()
	}

	got := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r Request) {
			defer wg.Done()
			sol, _, err := batched.Solve(ctx, r)
			if err != nil {
				errs[i] = err
				return
			}
			got[i], _ = sol.EncodeJSON()
		}(i, r)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("request %d: batched artifact differs from inline artifact", i)
		}
	}
	if batched.Metrics().Batches.Load() == 0 {
		t.Fatal("batcher never ran")
	}
}

// expiringCtx is a context whose Err reports a deadline expiry after a
// fixed number of nil polls — a deterministic stand-in for a deadline
// passing mid-solve, which a real timer cannot deliver reliably on a busy
// single-CPU runner.
type expiringCtx struct {
	context.Context
	polls int
}

func (c *expiringCtx) Err() error {
	if c.polls--; c.polls < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestBatchedOrientHonorsRequestContext: with a batch window each job
// orients under its own requester's context, so a tour whose deadline
// passes after the job left the queue stops at a 2-opt checkpoint with
// the context error instead of running the abandoned repair loop to
// completion.
func TestBatchedOrientHonorsRequestContext(t *testing.T) {
	eng := NewEngine(Options{BatchWindow: 2 * time.Millisecond})
	defer eng.Close()
	pts := uniformPts(2000, 31)
	item := core.BatchItem{Pts: pts, Tree: mst.Euclidean(pts), K: 1, Phi: 0, Algo: "tour"}
	// The first two polls (the dispatcher's queue shed and the 2-opt
	// entry) pass; the loop's first interior checkpoint sees the expiry.
	out := <-eng.orientAsync(&expiringCtx{Context: context.Background(), polls: 2}, item)
	if !errors.Is(out.Err, context.DeadlineExceeded) {
		t.Fatalf("batched tour err = %v, want the request's deadline error", out.Err)
	}
	// The same job under a live context orients cleanly.
	if out := <-eng.orientAsync(context.Background(), item); out.Err != nil || out.Asg == nil {
		t.Fatalf("live batched tour: err %v", out.Err)
	}
	if eng.Metrics().Batches.Load() == 0 {
		t.Fatal("jobs bypassed the batch dispatcher")
	}
}

// TestBatchedShedsExpiredQueuedJobs: a job whose requester's context is
// already done when it leaves the batch queue gets the context error
// without orienting — no pool slot, no batch, no batched item.
func TestBatchedShedsExpiredQueuedJobs(t *testing.T) {
	eng := NewEngine(Options{BatchWindow: 2 * time.Millisecond})
	defer eng.Close()
	pts := uniformPts(300, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []string{"cover", "tour"} {
		item := core.BatchItem{Pts: pts, Tree: mst.Euclidean(pts), K: 2, Phi: core.Phi2Full, Algo: algo}
		out := <-eng.orientAsync(ctx, item)
		if !errors.Is(out.Err, context.Canceled) || out.Asg != nil {
			t.Fatalf("%s: expired queued job: err %v, asg %v; want context.Canceled and no orientation", algo, out.Err, out.Asg)
		}
	}
	m := eng.Metrics()
	if b, n := m.Batches.Load(), m.BatchedItems.Load(); b != 0 || n != 0 {
		t.Fatalf("expired jobs reached the pool: %d batches, %d items", b, n)
	}
}
