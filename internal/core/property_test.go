package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/pointset"
	"repro/internal/verify"
)

// TestQuickOrientAlwaysStrong is the headline property test: for random
// point sets, any k ∈ [1,5], and any φ in the row's regime, the dispatcher
// yields a strongly connected network within the guarantee.
func TestQuickOrientAlwaysStrong(t *testing.T) {
	type input struct {
		Seed uint32
		N    uint8
		K    uint8
		Phi  uint8 // quantized spread selector
	}
	f := func(in input) bool {
		rng := rand.New(rand.NewSource(int64(in.Seed)))
		n := 2 + int(in.N)%120
		k := 1 + int(in.K)%5
		// φ selector: 0 → 0, otherwise spread within [0, 2π).
		phi := float64(in.Phi) / 255 * 1.9 * math.Pi
		pts := pointset.Uniform(rng, n, 8)
		asg, res, err := Orient(pts, k, phi)
		if err != nil {
			return false
		}
		if len(res.Violations) != 0 {
			t.Logf("violation: k=%d phi=%.4f n=%d: %s", k, phi, n, res.Violations[0])
			return false
		}
		if !verify.CheckStrong(asg) {
			t.Logf("not strong: k=%d phi=%.4f n=%d seed=%d", k, phi, n, in.Seed)
			return false
		}
		return res.RadiusRatio() <= res.Guarantee+1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickCoverSectorsOptimal cross-checks the gap cover against a brute
// force over all k-subsets of gaps for small target counts.
func TestQuickCoverSectorsOptimal(t *testing.T) {
	type input struct {
		Seed uint32
		M    uint8
		K    uint8
	}
	f := func(in input) bool {
		rng := rand.New(rand.NewSource(int64(in.Seed)))
		m := 2 + int(in.M)%6
		k := 1 + int(in.K)%4
		apex := geom.Point{}
		targets := make([]geom.Point, m)
		dirs := make([]float64, m)
		for i := range targets {
			dirs[i] = rng.Float64() * geom.TwoPi
			targets[i] = geom.Polar(apex, dirs[i], 0.5+rng.Float64())
		}
		secs := CoverSectors(apex, targets, k)
		var spread float64
		for _, s := range secs {
			spread += s.Spread
		}
		want := geom.MinCoverSpread(dirs, k)
		if math.Abs(spread-want) > 1e-6 {
			t.Logf("m=%d k=%d: cover %.6f, optimal %.6f", m, k, spread, want)
			return false
		}
		for _, q := range targets {
			ok := false
			for _, s := range secs {
				if s.Contains(apex, q) {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickTourPermutation checks that every tour construction emits a
// permutation with bounded bottleneck.
func TestQuickTourPermutation(t *testing.T) {
	type input struct {
		Seed uint32
		N    uint8
	}
	f := func(in input) bool {
		rng := rand.New(rand.NewSource(int64(in.Seed)))
		n := 2 + int(in.N)%80
		pts := pointset.Uniform(rng, n, 6)
		tree := mst.Euclidean(pts)
		tour := CubeTour(tree)
		if !isPermutation(tour, n) {
			return false
		}
		return TourBottleneck(pts, tour) <= 3*tree.LMax()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Collinear deployments force path MSTs with many degree-2 vertices and
// zero-area triangles — a degenerate regime for angular case analyses.
func TestCollinearDeployments(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 60} {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: float64(i) * 0.9, Y: 0}
		}
		for _, row := range Table1Rows() {
			asg, res, err := Orient(pts, row.K, row.Phi)
			if err != nil {
				t.Fatalf("n=%d row %s: %v", n, row.Name, err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("n=%d row %s: %v", n, row.Name, res.Violations[0])
			}
			if !graph.StronglyConnected(asg.InducedDigraph()) {
				t.Fatalf("n=%d row %s: collinear deployment not strongly connected", n, row.Name)
			}
			if res.RadiusRatio() > res.Guarantee+1e-7 {
				t.Fatalf("n=%d row %s: ratio %.4f above guarantee", n, row.Name, res.RadiusRatio())
			}
		}
	}
}

// Vertical and diagonal lines stress the angle normalization at ±π/2.
func TestAxisAlignedLines(t *testing.T) {
	makeLine := func(n int, dx, dy float64) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: float64(i) * dx, Y: float64(i) * dy}
		}
		return pts
	}
	for _, pts := range [][]geom.Point{
		makeLine(12, 0, 1),   // vertical
		makeLine(12, -1, 0),  // leftward
		makeLine(12, 1, -1),  // diagonal
		makeLine(12, 0, -.7), // downward
	} {
		for _, k := range []int{1, 2, 3} {
			phi := math.Pi
			if k == 3 {
				phi = 0
			}
			asg, res, err := Orient(pts, k, phi)
			if err != nil || len(res.Violations) != 0 {
				t.Fatalf("k=%d: err=%v violations=%v", k, err, res.Violations)
			}
			if !graph.StronglyConnected(asg.InducedDigraph()) {
				t.Fatalf("k=%d: line not strongly connected", k)
			}
		}
	}
}

// Co-circular points produce ties in MST construction; the pipeline must
// stay stable.
func TestCocircularDeployments(t *testing.T) {
	for _, n := range []int{4, 6, 9, 24} {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Polar(geom.Point{}, geom.TwoPi*float64(i)/float64(n), 5)
		}
		for _, k := range []int{2, 4, 5} {
			phi := 0.0
			if k == 2 {
				phi = math.Pi
			}
			asg, res, err := Orient(pts, k, phi)
			if err != nil || len(res.Violations) != 0 {
				t.Fatalf("n=%d k=%d: err=%v viol=%v", n, k, err, res.Violations)
			}
			if !graph.StronglyConnected(asg.InducedDigraph()) {
				t.Fatalf("n=%d k=%d: ring not strongly connected", n, k)
			}
		}
	}
}

// TestLargeInstanceSmoke exercises the full pipeline at n=5000 (Delaunay
// MST path) for the main theorem.
func TestLargeInstanceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(64))
	pts := pointset.Uniform(rng, 5000, 70)
	asg, res := OrientTwoAntennae(mst.Euclidean(pts), math.Pi)
	if len(res.Violations) != 0 {
		t.Fatalf("violations at n=5000: %s", res.Violations[0])
	}
	if !graph.StronglyConnected(asg.InducedDigraph()) {
		t.Fatal("n=5000 not strongly connected")
	}
	if res.RadiusRatio() > res.Bound+1e-7 {
		t.Fatalf("ratio %.4f above bound", res.RadiusRatio())
	}
}
