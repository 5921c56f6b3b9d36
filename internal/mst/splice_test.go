package mst

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// spliceOp is one mutation of the test driver: kind 0 = add, 1 = remove,
// 2 = move.
type spliceOp struct {
	kind  int
	index int
	pt    geom.Point
}

// applySpliceOps applies a batch to pts, returning the new point set, the
// old→new index map, and the fresh new indices — the exact inputs
// SpliceEMSTIndexed consumes (mirroring solution.PlanOps semantics:
// removals shift later indices down, adds append).
func applySpliceOps(pts []geom.Point, ops []spliceOp) ([]geom.Point, []int, []int) {
	type tracked struct {
		pt    geom.Point
		old   int // -1 for added points
		fresh bool
	}
	cur := make([]tracked, len(pts))
	for i, p := range pts {
		cur[i] = tracked{pt: p, old: i}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			cur = append(cur, tracked{pt: op.pt, old: -1, fresh: true})
		case 1:
			cur = append(cur[:op.index], cur[op.index+1:]...)
		case 2:
			cur[op.index].pt = op.pt
			cur[op.index].fresh = true
		}
	}
	out := make([]geom.Point, len(cur))
	old2new := make([]int, len(pts))
	for i := range old2new {
		old2new[i] = -1
	}
	var fresh []int
	for i, t := range cur {
		out[i] = t.pt
		if t.fresh {
			fresh = append(fresh, i)
		} else if t.old >= 0 {
			old2new[t.old] = i
		}
	}
	return out, old2new, fresh
}

// edgeKey canonicalizes an edge set for exact comparison.
func edgeKeySet(t *Tree) map[[2]int]bool {
	out := make(map[[2]int]bool, len(t.Edges()))
	for _, e := range t.Edges() {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		out[[2]int{u, v}] = true
	}
	return out
}

// sortedLengths returns the edge-length multiset, the invariant shared by
// every minimum spanning tree of a point set.
func sortedLengths(t *Tree) []float64 {
	out := make([]float64, 0, len(t.Edges()))
	for _, e := range t.Edges() {
		out = append(out, t.Pts[e[0]].Dist(t.Pts[e[1]]))
	}
	sort.Float64s(out)
	return out
}

func randomBatch(rng *rand.Rand, n int, side float64) []spliceOp {
	ops := make([]spliceOp, 0, 6)
	cur := n // track the point count as the batch applies sequentially
	for i := 0; i < 1+rng.Intn(5); i++ {
		switch rng.Intn(3) {
		case 0:
			ops = append(ops, spliceOp{kind: 0, pt: geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}})
			cur++
		case 1:
			if cur <= 24 {
				continue
			}
			ops = append(ops, spliceOp{kind: 1, index: rng.Intn(cur)})
			cur--
		case 2:
			ops = append(ops, spliceOp{kind: 2, index: rng.Intn(cur), pt: geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}})
		}
	}
	return ops
}

// TestSpliceEMSTMatchesScratch is the exactness property: across
// generator families and long random mutation sequences, the spliced tree
// is a minimum spanning tree of the new point set — identical edge sets
// in general position, and identical edge-length multisets (hence LMax)
// always.
func TestSpliceEMSTMatchesScratch(t *testing.T) {
	families := []struct {
		name string
		gen  func(rng *rand.Rand, n int) []geom.Point
		tied bool // exact ties possible: compare multisets, not edge sets
	}{
		{"uniform", func(rng *rand.Rand, n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			}
			return pts
		}, false},
		{"clustered", func(rng *rand.Rand, n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				cx, cy := float64(i%3)*20, float64((i/3)%2)*20
				pts[i] = geom.Point{X: cx + rng.NormFloat64(), Y: cy + rng.NormFloat64()}
			}
			return pts
		}, false},
		{"collinear", func(rng *rand.Rand, n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: float64(i) + rng.Float64()*0.4, Y: 0}
			}
			return pts
		}, false},
		{"lattice", func(rng *rand.Rand, n int) []geom.Point {
			side := int(math.Ceil(math.Sqrt(float64(n))))
			pts := make([]geom.Point, 0, n)
			for i := 0; i < n; i++ {
				pts = append(pts, geom.Point{X: float64(i % side), Y: float64(i / side)})
			}
			return pts
		}, true},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			pts := fam.gen(rng, 180)
			tree := Euclidean(pts)
			splices, rebuilds := 0, 0
			for step := 0; step < 40; step++ {
				ops := randomBatch(rng, len(pts), 10)
				newPts, old2new, fresh := applySpliceOps(pts, ops)
				scratch := Euclidean(newPts)
				spliced, touched, ok := SpliceEMSTIndexed(tree, newPts, nil, old2new, fresh)
				if !ok {
					rebuilds++
					pts, tree = newPts, scratch
					continue
				}
				splices++
				if err := spliced.Validate(); err != nil {
					t.Fatalf("step %d: spliced tree invalid: %v", step, err)
				}
				if touched != nil {
					// The change log must cover every adjacency change:
					// settled vertices outside it keep their neighborhoods.
					checkTouchedCovers(t, step, tree, spliced, old2new, fresh, touched)
				}
				wantLens, gotLens := sortedLengths(scratch), sortedLengths(spliced)
				if len(wantLens) != len(gotLens) {
					t.Fatalf("step %d: %d spliced edges, want %d", step, len(gotLens), len(wantLens))
				}
				for i := range wantLens {
					if math.Abs(wantLens[i]-gotLens[i]) > 1e-9 {
						t.Fatalf("step %d: edge-length multiset diverged at %d: %.12f vs %.12f",
							step, i, gotLens[i], wantLens[i])
					}
				}
				if math.Abs(spliced.LMax()-scratch.LMax()) > 1e-9 {
					t.Fatalf("step %d: LMax %.12f, scratch %.12f", step, spliced.LMax(), scratch.LMax())
				}
				if !fam.tied {
					want, got := edgeKeySet(scratch), edgeKeySet(spliced)
					for e := range want {
						if !got[e] {
							t.Fatalf("step %d: spliced tree missing edge %v", step, e)
						}
					}
				}
				pts, tree = newPts, spliced
			}
			if splices == 0 {
				t.Fatalf("no batch took the incremental path (%d rebuilds)", rebuilds)
			}
		})
	}
}

// TestSpliceEMSTBails covers the degenerate inputs that must fall back to
// a scratch rebuild rather than guess.
func TestSpliceEMSTBails(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}
	}
	tree := Euclidean(pts)
	identity := make([]int, len(pts))
	for i := range identity {
		identity[i] = i
	}

	if _, _, ok := SpliceEMSTIndexed(nil, pts, nil, identity, nil); ok {
		t.Fatal("nil old tree must bail")
	}
	if _, _, ok := SpliceEMSTIndexed(tree, pts[:8], nil, identity[:8], nil); ok {
		t.Fatal("mismatched old2new must bail")
	}
	// Freshening more than a quarter of the instance is not local repair.
	manyFresh := make([]int, 0, len(pts)/2)
	for i := 0; i < len(pts)/2; i++ {
		manyFresh = append(manyFresh, i)
	}
	if _, _, ok := SpliceEMSTIndexed(tree, pts, nil, identity, manyFresh); ok {
		t.Fatal("bulk-fresh batch must bail")
	}

	// An empty batch is a no-op splice that must still be exact.
	spliced, _, ok := SpliceEMSTIndexed(tree, pts, nil, identity, nil)
	if !ok {
		t.Fatal("no-op splice should succeed")
	}
	if fmt.Sprint(sortedLengths(spliced)) != fmt.Sprint(sortedLengths(tree)) {
		t.Fatal("no-op splice changed the tree")
	}
}

// checkTouchedCovers asserts the splice change log is sound: a settled
// vertex absent from it has an identical neighbor set in both trees.
func checkTouchedCovers(t *testing.T, step int, oldTree, newTree *Tree, old2new []int, fresh, touched []int) {
	t.Helper()
	n := newTree.N()
	mark := make([]bool, n)
	for _, v := range fresh {
		mark[v] = true
	}
	for _, v := range touched {
		mark[v] = true
	}
	oldNbs := make(map[int]map[int]bool)
	for oldV, newV := range old2new {
		if newV < 0 {
			continue
		}
		m := make(map[int]bool)
		for _, u := range oldTree.Adj[oldV] {
			if nu := old2new[u]; nu >= 0 {
				m[nu] = true
			} else {
				m[-1] = true // neighbor vanished: vertex must be touched
			}
		}
		oldNbs[newV] = m
	}
	for v := 0; v < n; v++ {
		if mark[v] {
			continue
		}
		want := oldNbs[v]
		if want == nil || want[-1] || len(want) != len(newTree.Adj[v]) {
			t.Fatalf("step %d: untouched vertex %d changed adjacency", step, v)
		}
		for _, u := range newTree.Adj[v] {
			if !want[u] {
				t.Fatalf("step %d: untouched vertex %d gained neighbor %d", step, v, u)
			}
		}
	}
}
