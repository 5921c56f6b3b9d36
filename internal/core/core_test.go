package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/pointset"
	"repro/internal/verify"
)

// workload generates the trial'th test point set, cycling through
// deployment shapes.
func workload(rng *rand.Rand, trial, n int) []geom.Point {
	switch trial % 5 {
	case 0:
		return pointset.Uniform(rng, n, 10)
	case 1:
		return pointset.Clusters(rng, n, 4, 12, 0.5)
	case 2:
		return pointset.PerturbedGrid(rng, 8, (n+7)/8, 1, 0.25)
	case 3:
		return pointset.Annulus(rng, n, 4, 8)
	default:
		return pointset.Ring(rng, n, 6, 0.4)
	}
}

// checkOrientation runs the full verification battery for an assignment.
func checkOrientation(t *testing.T, label string, pts []geom.Point, k int, phi float64, guarantee float64, res *Result, asgOK func() *verify.Report) {
	t.Helper()
	if len(res.Violations) != 0 {
		t.Fatalf("%s: algorithm reported violations: %s", label, res.Violations[0])
	}
	rep := asgOK()
	if !rep.OK() {
		t.Fatalf("%s: verification failed: %s", label, rep.String())
	}
	if !res.WithinBound(1e-7) && res.RadiusRatio() > guarantee+1e-7 {
		t.Fatalf("%s: radius ratio %.6f exceeds both bound %.6f and guarantee %.6f",
			label, res.RadiusRatio(), res.Bound, guarantee)
	}
}

func TestBoundTable(t *testing.T) {
	cases := []struct {
		k    int
		phi  float64
		want float64
	}{
		{1, 0, 2},
		{1, math.Pi, 2},
		{1, Phi1Full, 1},
		{2, 0, 2},
		{2, Phi2Min, math.Sqrt(3)}, // 2·sin(π/2 − π/6) = 2·sin(π/3)
		{2, math.Pi, 2 * math.Sin(2*math.Pi/9)},
		{2, Phi2Full, 1},
		{3, 0, math.Sqrt(3)},
		{3, Phi3Full, 1},
		{4, 0, math.Sqrt(2)},
		{4, Phi4Full, 1},
		{5, 0, 1},
		{7, 0, 1},
	}
	for _, c := range cases {
		got, src := Bound(c.k, c.phi)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Bound(%d, %.4f) = %.6f (%s), want %.6f", c.k, c.phi, got, src, c.want)
		}
	}
	if b, src := Bound(0, 0); !math.IsInf(b, 1) || src != "invalid" {
		t.Errorf("Bound(0,0) = %v %q", b, src)
	}
	// Bound is monotone non-increasing in phi for each k.
	for k := 1; k <= 5; k++ {
		prev := math.Inf(1)
		for phi := 0.0; phi <= 2*math.Pi; phi += 0.01 {
			b, _ := Bound(k, phi)
			if b > prev+1e-9 {
				t.Fatalf("Bound(k=%d) not monotone at phi=%.3f: %v > %v", k, phi, b, prev)
			}
			prev = b
		}
	}
}

func TestCoverSectorsOptimal(t *testing.T) {
	apex := geom.Point{}
	// Regular d-gon targets: optimal spread = 2π(d−k)/d.
	for d := 2; d <= 6; d++ {
		targets := make([]geom.Point, d)
		for i := range targets {
			targets[i] = geom.Polar(apex, geom.TwoPi*float64(i)/float64(d), 1)
		}
		for k := 1; k <= d+1; k++ {
			secs := CoverSectors(apex, targets, k)
			var spread float64
			for _, s := range secs {
				spread += s.Spread
			}
			want := 0.0
			if k < d {
				want = geom.TwoPi * float64(d-k) / float64(d)
			}
			if math.Abs(spread-want) > 1e-9 {
				t.Errorf("d=%d k=%d: spread %.6f, want %.6f", d, k, spread, want)
			}
			// Every target covered.
			for _, q := range targets {
				ok := false
				for _, s := range secs {
					if s.Contains(apex, q) {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("d=%d k=%d: target %v uncovered", d, k, q)
				}
			}
		}
	}
	if CoverSectors(apex, nil, 1) != nil {
		t.Error("no targets should give no sectors")
	}
	if CoverSectors(apex, []geom.Point{{X: 1, Y: 0}}, 0) != nil {
		t.Error("k=0 should give no sectors")
	}
}

func TestCoverSectorsRandomAgainstLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	apex := geom.Point{}
	for trial := 0; trial < 300; trial++ {
		d := 2 + rng.Intn(6)
		targets := make([]geom.Point, d)
		for i := range targets {
			targets[i] = geom.Polar(apex, rng.Float64()*geom.TwoPi, 0.3+rng.Float64())
		}
		k := 1 + rng.Intn(d)
		opt := CoverSectors(apex, targets, k)
		lit := CoverSectorsLiteral(apex, targets, k)
		spread := func(ss []geom.Sector) float64 {
			var t float64
			for _, s := range ss {
				t += s.Spread
			}
			return t
		}
		so, sl := spread(opt), spread(lit)
		if so > sl+1e-9 {
			t.Fatalf("trial %d: optimal %.6f worse than literal %.6f", trial, so, sl)
		}
		bound := geom.TwoPi * float64(d-k) / float64(d)
		if k < d && sl > bound+1e-9 {
			t.Fatalf("trial %d: literal spread %.6f exceeds Lemma 1 bound %.6f", trial, sl, bound)
		}
		for _, secs := range [][]geom.Sector{opt, lit} {
			if len(secs) > k {
				t.Fatalf("trial %d: %d sectors for k=%d", trial, len(secs), k)
			}
			for _, q := range targets {
				ok := false
				for _, s := range secs {
					if s.Contains(apex, q) {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("trial %d: target uncovered", trial)
				}
			}
		}
	}
}

func TestOrientFullCoverAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for k := 1; k <= 5; k++ {
		phi := theorem2Threshold(k)
		for trial := 0; trial < 10; trial++ {
			pts := workload(rng, trial, 60+rng.Intn(100))
			asg, res := OrientFullCover(mst.Euclidean(pts), k, phi, trial%2 == 1)
			checkOrientation(t, res.Algorithm, pts, k, phi, 1, res, func() *verify.Report {
				return verify.Check(asg, verify.Budgets{K: k, Phi: phi, RadiusBound: 1})
			})
		}
	}
}

func TestOrientFullCoverTrivial(t *testing.T) {
	asg, res := OrientFullCover(mst.Euclidean(nil), 5, 0, false)
	if asg.N() != 0 || len(res.Violations) != 0 {
		t.Fatal("empty cover failed")
	}
	asg, res = OrientFullCover(mst.Euclidean([]geom.Point{{X: 1, Y: 1}}), 5, 0, false)
	if asg.N() != 1 || len(res.Violations) != 0 {
		t.Fatal("single cover failed")
	}
}

func TestOrientOneAntennaRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, phi := range []float64{math.Pi, 1.1 * math.Pi, 1.25 * math.Pi, 1.5 * math.Pi, Phi1Full, 1.9 * math.Pi} {
		for trial := 0; trial < 8; trial++ {
			pts := workload(rng, trial, 50+rng.Intn(120))
			asg, res := OrientOneAntenna(mst.Euclidean(pts), phi)
			bound, _ := Bound(1, phi)
			checkOrientation(t, res.Algorithm, pts, 1, phi, bound, res, func() *verify.Report {
				return verify.Check(asg, verify.Budgets{K: 1, Phi: phi, RadiusBound: bound})
			})
		}
	}
}

func TestOrientOneAntennaRejectsTinyPhi(t *testing.T) {
	pts := pointset.Uniform(rand.New(rand.NewSource(1)), 20, 5)
	_, res := OrientOneAntenna(mst.Euclidean(pts), math.Pi/2)
	if len(res.Violations) == 0 {
		t.Fatal("phi < π must be reported")
	}
}

func TestOrientTwoAntennaePart1(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, phi := range []float64{math.Pi, 1.05 * math.Pi, 1.15 * math.Pi} {
		for trial := 0; trial < 12; trial++ {
			pts := workload(rng, trial, 60+rng.Intn(150))
			asg, res := OrientTwoAntennae(mst.Euclidean(pts), phi)
			bound, _ := Bound(2, phi)
			checkOrientation(t, res.Algorithm, pts, 2, phi, bound, res, func() *verify.Report {
				return verify.Check(asg, verify.Budgets{K: 2, Phi: phi, RadiusBound: bound})
			})
		}
	}
}

func TestOrientTwoAntennaePart2(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, frac := range []float64{2.0 / 3, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.999} {
		phi := frac * math.Pi
		for trial := 0; trial < 8; trial++ {
			pts := workload(rng, trial, 60+rng.Intn(150))
			asg, res := OrientTwoAntennae(mst.Euclidean(pts), phi)
			bound, _ := Bound(2, phi)
			checkOrientation(t, res.Algorithm, pts, 2, phi, bound, res, func() *verify.Report {
				return verify.Check(asg, verify.Budgets{K: 2, Phi: phi, RadiusBound: bound})
			})
		}
	}
}

func TestOrientThreeFourAntennae(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 15; trial++ {
		pts := workload(rng, trial, 60+rng.Intn(150))
		asg, res := OrientThreeAntennae(mst.Euclidean(pts), 0)
		checkOrientation(t, res.Algorithm, pts, 3, 0, math.Sqrt(3), res, func() *verify.Report {
			return verify.Check(asg, verify.Budgets{K: 3, Phi: 0, RadiusBound: math.Sqrt(3)})
		})
		asg, res = OrientFourAntennae(mst.Euclidean(pts), 0)
		checkOrientation(t, res.Algorithm, pts, 4, 0, math.Sqrt(2), res, func() *verify.Report {
			return verify.Check(asg, verify.Budgets{K: 4, Phi: 0, RadiusBound: math.Sqrt(2)})
		})
	}
}

func TestOrientDispatcherAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, row := range Table1Rows() {
		for trial := 0; trial < 4; trial++ {
			pts := workload(rng, trial, 50+rng.Intn(80))
			asg, res, err := Orient(pts, row.K, row.Phi)
			if err != nil {
				t.Fatalf("row %s: %v", row.Name, err)
			}
			checkOrientation(t, row.Name, pts, row.K, row.Phi, res.Guarantee, res, func() *verify.Report {
				return verify.Check(asg, verify.Budgets{K: row.K, Phi: row.Phi, RadiusBound: res.Guarantee})
			})
		}
	}
}

func TestOrientErrors(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	if _, _, err := Orient(pts, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := Orient(pts, 2, -1); err == nil {
		t.Fatal("negative phi accepted")
	}
	if _, _, err := Orient(pts, 2, math.NaN()); err == nil {
		t.Fatal("NaN phi accepted")
	}
}

func TestOrientTinyInstances(t *testing.T) {
	// n = 0, 1, 2, 3 across all rows must not crash and must verify.
	rng := rand.New(rand.NewSource(38))
	for _, row := range Table1Rows() {
		for n := 0; n <= 3; n++ {
			pts := pointset.Uniform(rng, n, 3)
			asg, res, err := Orient(pts, row.K, row.Phi)
			if err != nil {
				t.Fatalf("row %s n=%d: %v", row.Name, n, err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("row %s n=%d: %v", row.Name, n, res.Violations)
			}
			if !verify.CheckStrong(asg) {
				t.Fatalf("row %s n=%d: not strongly connected", row.Name, n)
			}
		}
	}
}

func TestMinSpreadForFullCover(t *testing.T) {
	// A 5-star needs exactly 2π(5−k)/5 for the center.
	pts := pointset.RegularPolygonStar(5, 1)
	for k := 1; k <= 4; k++ {
		want := geom.TwoPi * float64(5-k) / 5
		if got := MinSpreadForFullCover(pts, k); math.Abs(got-want) > 1e-9 {
			t.Errorf("k=%d: MinSpread = %.6f, want %.6f", k, got, want)
		}
	}
	if got := MinSpreadForFullCover(pts, 5); got != 0 {
		t.Errorf("k=5: MinSpread = %v, want 0", got)
	}
	if got := MinSpreadForFullCover(nil, 1); got != 0 {
		t.Errorf("empty: MinSpread = %v", got)
	}
}

func TestLemma1NecessityWitness(t *testing.T) {
	// The paper's necessity argument: on the regular d-gon with center,
	// no k antennae with total spread < 2π(d−k)/d can cover all spokes.
	for d := 3; d <= 5; d++ {
		pts := pointset.RegularPolygonStar(d, 1)
		for k := 1; k < d; k++ {
			dirs := make([]float64, d)
			center := pts[len(pts)-1]
			for i := 0; i < d; i++ {
				dirs[i] = geom.Dir(center, pts[i])
			}
			need := geom.MinCoverSpread(dirs, k)
			want := geom.TwoPi * float64(d-k) / float64(d)
			if math.Abs(need-want) > 1e-9 {
				t.Errorf("d=%d k=%d: necessity %.6f, want %.6f", d, k, need, want)
			}
		}
	}
}

func TestTheorem3CaseCoverage(t *testing.T) {
	// Across many instances, the part-1 induction must exercise its
	// degree cases; high-degree cases need clustered/grid workloads.
	rng := rand.New(rand.NewSource(39))
	counts := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		pts := workload(rng, trial, 120)
		_, res := OrientTwoAntennae(mst.Euclidean(pts), math.Pi)
		for c, n := range res.Cases {
			counts[c] += n
		}
	}
	for _, want := range []string{"t3-leaf", "t3-deg2", "t3-deg3-gap-p-c1"} {
		if counts[want] == 0 {
			t.Errorf("case %s never exercised (got %v)", want, counts)
		}
	}
	if counts["t3-deg4p1-forward"]+counts["t3-deg4p1-backward"] == 0 {
		t.Errorf("degree-4 cases never exercised: %v", counts)
	}
}

func TestFactValidatorsOnWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 20; trial++ {
		pts := workload(rng, trial, 150)
		tree := mst.Euclidean(pts)
		if v := mst.CheckFact1(tree, 1e-7); len(v) > 0 {
			t.Fatalf("Fact1 violated on workload %d: %v", trial, v[0])
		}
		if v := mst.CheckFact2(tree, 1e-7); len(v) > 0 {
			t.Fatalf("Fact2 violated on workload %d: %v", trial, v[0])
		}
	}
}
