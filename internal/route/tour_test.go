package route_test

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/route"
	"repro/internal/spatial"
)

func randPts(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts
}

// applyBatch builds (newPts, old2new, fresh) from a removal set and a
// list of added points, with solution.PlanOps's compaction semantics:
// survivors keep relative order, fresh append at the end.
func applyBatch(pts []geom.Point, removed map[int]bool, added []geom.Point) ([]geom.Point, []int, []int) {
	old2new := make([]int, len(pts))
	var newPts []geom.Point
	for i, p := range pts {
		if removed[i] {
			old2new[i] = -1
			continue
		}
		old2new[i] = len(newPts)
		newPts = append(newPts, p)
	}
	var fresh []int
	for _, p := range added {
		fresh = append(fresh, len(newPts))
		newPts = append(newPts, p)
	}
	return newPts, old2new, fresh
}

// neighborSets returns, per vertex, its sorted pair of cycle neighbors.
func neighborSets(tour []int, n int) [][2]int {
	out := make([][2]int, n)
	m := len(tour)
	for i, v := range tour {
		a, b := tour[(i-1+m)%m], tour[(i+1)%m]
		if a > b {
			a, b = b, a
		}
		out[v] = [2]int{a, b}
	}
	return out
}

// TestSpliceTourInvariants checks, across random churn batches, that the
// spliced tour is a permutation and that every vertex outside the dirty
// set kept its (index-mapped) cycle neighborhood.
func TestSpliceTourInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		pts := randPts(150, seed)
		tour, _, _ := core.BestTour(context.Background(), mst.Euclidean(pts))

		removed := map[int]bool{}
		for len(removed) < 4 {
			removed[rng.Intn(len(pts))] = true
		}
		added := []geom.Point{
			{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			{X: rng.Float64() * 100, Y: rng.Float64() * 100},
		}
		newPts, old2new, fresh := applyBatch(pts, removed, added)
		grid := spatial.NewGrid(newPts, 0)
		newTour, dirty, ok := route.SpliceTour(tour, newPts, grid, old2new, fresh)
		if !ok {
			t.Fatalf("seed %d: splice unexpectedly bailed", seed)
		}
		if len(newTour) != len(newPts) {
			t.Fatalf("seed %d: tour has %d of %d vertices", seed, len(newTour), len(newPts))
		}
		seen := make([]bool, len(newPts))
		for _, v := range newTour {
			if v < 0 || v >= len(newPts) || seen[v] {
				t.Fatalf("seed %d: tour is not a permutation (vertex %d)", seed, v)
			}
			seen[v] = true
		}
		isDirty := make([]bool, len(newPts))
		for _, v := range dirty {
			isDirty[v] = true
		}
		for _, v := range fresh {
			if !isDirty[v] {
				t.Fatalf("seed %d: fresh vertex %d not marked dirty", seed, v)
			}
		}
		// Clean vertices must keep their exact neighborhood.
		oldN := neighborSets(tour, len(pts))
		newN := neighborSets(newTour, len(newPts))
		for o, nIdx := range old2new {
			if nIdx < 0 || isDirty[nIdx] {
				continue
			}
			a, b := old2new[oldN[o][0]], old2new[oldN[o][1]]
			if a > b {
				a, b = b, a
			}
			if newN[nIdx] != [2]int{a, b} {
				t.Fatalf("seed %d: clean vertex %d (old %d) changed neighborhood %v -> %v",
					seed, nIdx, o, [2]int{a, b}, newN[nIdx])
			}
		}
	}
}

// TestSpliceTourBailsOnShatter: removing almost everything leaves too few
// survivors to stitch.
func TestSpliceTourBailsOnShatter(t *testing.T) {
	pts := randPts(10, 7)
	tour, _, _ := core.BestTour(context.Background(), mst.Euclidean(pts))
	removed := map[int]bool{}
	for i := 0; i < 8; i++ {
		removed[i] = true
	}
	newPts, old2new, fresh := applyBatch(pts, removed, nil)
	grid := spatial.NewGrid(newPts, 0)
	if _, _, ok := route.SpliceTour(tour, newPts, grid, old2new, fresh); ok {
		t.Fatalf("splice should bail with 2 survivors")
	}
}

// TestLocalTwoOptRepairsWindow plants a reversed segment in a ring tour
// (two artificial long hops) and checks the dirty-window 2-opt restores
// the bottleneck without touching the rest of the cycle.
func TestLocalTwoOptRepairsWindow(t *testing.T) {
	const n = 48
	pts := make([]geom.Point, n)
	for i := range pts {
		th := 2 * math.Pi * float64(i) / n
		pts[i] = geom.Point{X: 10 * math.Cos(th), Y: 10 * math.Sin(th)}
	}
	tour := make([]int, n)
	for i := range tour {
		tour[i] = i
	}
	// Reverse positions 10..15: hops (9,15) and (10,16) become long.
	for i, j := 10, 15; i < j; i, j = i+1, j-1 {
		tour[i], tour[j] = tour[j], tour[i]
	}
	ringHop := pts[0].Dist(pts[1])
	bound := 2 * ringHop
	grid := spatial.NewGrid(pts, 0)
	seeds := []int{9, 15, 10, 16}
	extra, ok, err := route.LocalTwoOpt(context.Background(), pts, grid, tour, seeds, bound, 16, 32, true)
	if err != nil || !ok {
		t.Fatalf("2-opt failed: ok=%v err=%v", ok, err)
	}
	for i := range tour {
		d := pts[tour[i]].Dist(pts[tour[(i+1)%n]])
		if d > bound+geom.Eps {
			t.Fatalf("hop %d->%d still %.4f > bound %.4f", tour[i], tour[(i+1)%n], d, bound)
		}
	}
	if len(extra) == 0 {
		t.Fatalf("expected dirty vertices from the applied move")
	}
}

// TestLocalTwoOptTracksSuccessorChanges: with trackArc set, every vertex
// whose successor changed must land in the returned dirty set — the
// invariant the k=1 tour repair relies on to re-aim rays.
func TestLocalTwoOptTracksSuccessorChanges(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		pts := randPts(120, 40+seed)
		tree := mst.Euclidean(pts)
		tour, _, _ := core.BestTour(context.Background(), mst.Euclidean(pts))
		// Corrupt the tour deterministically to create work.
		rng := rand.New(rand.NewSource(seed))
		for s := 0; s < 3; s++ {
			i, j := rng.Intn(len(tour)), rng.Intn(len(tour))
			if i > j {
				i, j = j, i
			}
			if j-i > 1 && j-i < 30 {
				for a, b := i, j; a < b; a, b = a+1, b-1 {
					tour[a], tour[b] = tour[b], tour[a]
				}
			}
		}
		before := successors(tour)
		var seeds []int
		for i := range tour {
			seeds = append(seeds, tour[i])
		}
		grid := spatial.NewGrid(pts, 0)
		cp := append([]int(nil), tour...)
		extra, _, err := route.LocalTwoOpt(context.Background(), pts, grid, cp, seeds, 3*tree.LMax(), 64, 256, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := successors(cp)
		inExtra := map[int]bool{}
		for _, v := range extra {
			inExtra[v] = true
		}
		for v := range before {
			if before[v] != after[v] && !inExtra[v] {
				t.Fatalf("seed %d: vertex %d successor changed %d->%d but not reported dirty",
					seed, v, before[v], after[v])
			}
		}
		if !sort.IntsAreSorted(extra) {
			t.Fatalf("seed %d: dirty set not sorted", seed)
		}
	}
}

func successors(tour []int) map[int]int {
	m := map[int]int{}
	for i, v := range tour {
		m[v] = tour[(i+1)%len(tour)]
	}
	return m
}

// TestLocalTwoOptCancellation: an expired context aborts the repair.
func TestLocalTwoOptCancellation(t *testing.T) {
	pts := randPts(50, 3)
	tour, _, _ := core.BestTour(context.Background(), mst.Euclidean(pts))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	grid := spatial.NewGrid(pts, 0)
	_, _, err := route.LocalTwoOpt(ctx, pts, grid, tour, []int{0, 1}, 1e-9, 16, 32, false)
	if err == nil {
		t.Fatalf("expected context error")
	}
}
