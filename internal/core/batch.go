package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mst"
)

// BatchItem is one orientation problem for OrientItem: a point set, the
// (k, φ) budget to orient it under, and optionally the registered
// orienter to run (empty selects the Table-1 dispatcher). Naming an
// unregistered orienter yields an error in that item's BatchResult.
type BatchItem struct {
	Pts []geom.Point
	// Tree, when non-nil, is the caller's EMST of Pts (mst.Euclidean),
	// which the orienter reads and never mutates; nil makes the worker
	// build it.
	Tree *mst.Tree
	K    int
	Phi  float64
	Algo string
}

// BatchResult carries the outcome of one BatchItem.
type BatchResult struct {
	Asg *antenna.Assignment
	Res *Result
	Err error
}

// OrientItem orients one item under ctx: the construction's own
// checkpoints (the tour 2-opt repair loop polls every few moves) abandon
// it with ctx.Err() once the context is done; constructions without
// checkpoints run to completion, so a caller that wants to refuse work
// under a done context checks it first. Fanning items across
// ParallelFor, each writing its own result slot, orients a batch in
// input order at every worker count; this is how the service layer runs
// its orientation pool under each request's own deadline.
func OrientItem(ctx context.Context, it BatchItem) BatchResult {
	name := it.Algo
	if name == "" {
		name = DefaultOrienterName
	}
	o, ok := LookupOrienter(name)
	if !ok {
		return BatchResult{Err: fmt.Errorf("core: unknown orienter %q", it.Algo)}
	}
	tree := it.Tree
	if tree == nil {
		tree = mst.Euclidean(it.Pts)
	}
	asg, res, err := o.OrientTree(ctx, tree, it.K, it.Phi)
	return BatchResult{Asg: asg, Res: res, Err: err}
}

// ParallelFor runs fn(i) for every i in [0, n) across a worker pool.
// workers ≤ 0 selects GOMAXPROCS; a single worker degenerates to a plain
// loop with no goroutine overhead. Each index must write only its own
// result slot, which makes the output independent of scheduling — the
// shared fan-out primitive behind the service's orientation pool and the
// experiment harnesses.
func ParallelFor(n, workers int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
