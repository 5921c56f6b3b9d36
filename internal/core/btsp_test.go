package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/pointset"
	"repro/internal/verify"
)

func isPermutation(tour []int, n int) bool {
	if len(tour) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range tour {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// treeDistances returns all-pairs hop distances in the tree (BFS per
// vertex; test-sized inputs only).
func treeDistances(t *mst.Tree) [][]int {
	n := t.N()
	out := make([][]int, n)
	for s := 0; s < n; s++ {
		d := make([]int, n)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		q := []int{s}
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			for _, w := range t.Adj[v] {
				if d[w] < 0 {
					d[w] = d[v] + 1
					q = append(q, w)
				}
			}
		}
		out[s] = d
	}
	return out
}

func TestCubeTourTreeDistance3(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 25; trial++ {
		pts := workload(rng, trial, 10+rng.Intn(120))
		tree := mst.Euclidean(pts)
		tour := CubeTour(tree)
		if !isPermutation(tour, tree.N()) {
			t.Fatalf("trial %d: tour is not a permutation", trial)
		}
		td := treeDistances(tree)
		for i := range tour {
			a, b := tour[i], tour[(i+1)%len(tour)]
			if td[a][b] > 3 {
				t.Fatalf("trial %d: consecutive tour vertices %d,%d at tree distance %d",
					trial, a, b, td[a][b])
			}
		}
		// Euclidean corollary: bottleneck ≤ 3·l_max.
		if bn := TourBottleneck(pts, tour); bn > 3*tree.LMax()+1e-9 {
			t.Fatalf("trial %d: cube tour bottleneck %.6f > 3·l_max %.6f", trial, bn, 3*tree.LMax())
		}
	}
}

func TestCubeTourDegenerate(t *testing.T) {
	if got := CubeTour(mst.Prim(nil)); got != nil {
		t.Fatal("empty tour")
	}
	if got := CubeTour(mst.Prim([]geom.Point{{X: 1, Y: 1}})); len(got) != 1 {
		t.Fatal("single tour")
	}
	two := mst.Prim([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}})
	if got := CubeTour(two); !isPermutation(got, 2) {
		t.Fatalf("two-point tour = %v", got)
	}
}

func TestShortcutTourIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts := pointset.Uniform(rng, 200, 10)
	tree := mst.Euclidean(pts)
	tour := ShortcutTour(tree)
	if !isPermutation(tour, 200) {
		t.Fatal("shortcut tour not a permutation")
	}
	if ShortcutTour(mst.Prim(nil)) != nil {
		t.Fatal("empty shortcut tour")
	}
}

func TestTwoOptBottleneckImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 15; trial++ {
		pts := pointset.Uniform(rng, 30+rng.Intn(60), 10)
		tree := mst.Euclidean(pts)
		tour := ShortcutTour(tree)
		before := TourBottleneck(pts, tour)
		improved := TwoOptBottleneck(pts, tour, 200)
		after := TourBottleneck(pts, improved)
		if !isPermutation(improved, len(pts)) {
			t.Fatal("2-opt broke the permutation")
		}
		if after > before+1e-9 {
			t.Fatalf("2-opt worsened bottleneck: %.6f -> %.6f", before, after)
		}
	}
	// Tiny tours pass through unchanged.
	small := []int{0, 1, 2}
	if got := TwoOptBottleneck([]geom.Point{{}, {X: 1}, {X: 2}}, small, 10); len(got) != 3 {
		t.Fatal("tiny tour mangled")
	}
}

// reverseArcHarness runs reverseArc over a fresh position state and
// checks that pos stays consistent with the tour.
func reverseArcHarness(t *testing.T, tour []int, lo, hi int) []int {
	t.Helper()
	n := len(tour)
	out := append([]int(nil), tour...)
	pos := make([]int, n)
	for i, v := range out {
		pos[v] = i
	}
	reverseArc(out, pos, lo, hi)
	for i, v := range out {
		if pos[v] != i {
			t.Fatalf("pos[%d] = %d, want %d", v, pos[v], i)
		}
	}
	return out
}

func TestReverseArcCyclic(t *testing.T) {
	got := reverseArcHarness(t, []int{0, 1, 2, 3, 4, 5}, 1, 3)
	want := []int{0, 3, 2, 1, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Wrap-around reversal of segment 4,5,0,1.
	got = reverseArcHarness(t, []int{0, 1, 2, 3, 4, 5}, 4, 1)
	want = []int{5, 4, 2, 3, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wrap: got %v, want %v", got, want)
		}
	}
}

func TestExactBottleneckTour(t *testing.T) {
	// Square: optimal bottleneck tour is the perimeter (bottleneck 1).
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	tour, bn, ok := ExactBottleneckTour(pts)
	if !ok || !isPermutation(tour, 4) {
		t.Fatalf("exact failed: %v %v %v", tour, bn, ok)
	}
	if math.Abs(bn-1) > 1e-9 {
		t.Fatalf("square bottleneck = %v, want 1", bn)
	}
	// Degenerates.
	if _, _, ok := ExactBottleneckTour(nil); ok {
		t.Fatal("empty should fail")
	}
	if tour, bn, ok := ExactBottleneckTour([]geom.Point{{X: 5, Y: 5}}); !ok || len(tour) != 1 || bn != 0 {
		t.Fatal("single point exact failed")
	}
	if _, bn, ok := ExactBottleneckTour([]geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}); !ok || math.Abs(bn-5) > 1e-9 {
		t.Fatal("pair exact failed")
	}
	big := pointset.Uniform(rand.New(rand.NewSource(1)), 20, 5)
	if _, _, ok := ExactBottleneckTour(big); ok {
		t.Fatal("n=20 should be refused")
	}
}

func TestExactIsOptimalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	perm := []int{1, 2, 3, 4, 5}
	for trial := 0; trial < 10; trial++ {
		pts := pointset.Uniform(rng, 6, 3)
		_, got, ok := ExactBottleneckTour(pts)
		if !ok {
			t.Fatal("exact failed")
		}
		// Brute force over all tours fixing vertex 0.
		best := math.Inf(1)
		p := append([]int(nil), perm...)
		var rec func(k int)
		rec = func(k int) {
			if k == len(p) {
				tour := append([]int{0}, p...)
				if bn := TourBottleneck(pts, tour); bn < best {
					best = bn
				}
				return
			}
			for i := k; i < len(p); i++ {
				p[k], p[i] = p[i], p[k]
				rec(k + 1)
				p[k], p[i] = p[i], p[k]
			}
		}
		rec(0)
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("trial %d: exact %.6f != brute %.6f", trial, got, best)
		}
	}
}

func TestOrientTourRows(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for k := 1; k <= 2; k++ {
		for trial := 0; trial < 10; trial++ {
			pts := workload(rng, trial, 40+rng.Intn(80))
			tree := mst.Euclidean(pts)
			tour, bn, _ := BestTour(context.Background(), tree)
			asg, res := OrientTour(tree, tour, k, 0)
			if len(res.Violations) != 0 {
				t.Fatalf("violations: %v", res.Violations)
			}
			rep := verify.Check(asg, verify.Budgets{K: k, Phi: 0, RadiusBound: 3})
			if !rep.OK() {
				t.Fatalf("k=%d trial %d: %s", k, trial, rep.String())
			}
			if math.Abs(res.RadiusUsed-bn) > 1e-9 {
				t.Fatalf("radius %v != tour bottleneck %v", res.RadiusUsed, bn)
			}
		}
	}
}

func TestBestTourQuality(t *testing.T) {
	// On random uniform instances the repaired tour should achieve the
	// paper's 2·l_max comfortably (the [14] row shape).
	rng := rand.New(rand.NewSource(55))
	exceeded := 0
	for trial := 0; trial < 15; trial++ {
		pts := pointset.Uniform(rng, 80, 10)
		tree := mst.Euclidean(pts)
		_, bn, _ := BestTour(context.Background(), mst.Euclidean(pts))
		if bn > 2*tree.LMax()+1e-9 {
			exceeded++
		}
		if bn > 3*tree.LMax()+1e-9 {
			t.Fatalf("trial %d: tour bottleneck %.6f above the proven 3·l_max", trial, bn/tree.LMax())
		}
	}
	if exceeded > 3 {
		t.Fatalf("tour bottleneck exceeded 2·l_max on %d/15 uniform instances", exceeded)
	}
}

func TestBestTourTiny(t *testing.T) {
	if tour, _, _ := BestTour(context.Background(), mst.Euclidean(nil)); tour != nil {
		t.Fatal("empty best tour")
	}
	pts := pointset.Uniform(rand.New(rand.NewSource(2)), 7, 3)
	tour, bn, _ := BestTour(context.Background(), mst.Euclidean(pts))
	if !isPermutation(tour, 7) {
		t.Fatal("tiny best tour not a permutation")
	}
	// Must equal the exact optimum for n ≤ 11.
	_, want, _ := ExactBottleneckTour(pts)
	if math.Abs(bn-want) > 1e-9 {
		t.Fatalf("tiny best tour %.6f != exact %.6f", bn, want)
	}
}
