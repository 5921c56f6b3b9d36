package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/pointset"
	"repro/internal/verify"
)

func TestOrienterRegistry(t *testing.T) {
	names := OrienterNames()
	want := []string{"bats", "cover", "k1", "table1", "tour", "tworay"}
	if len(names) != len(want) {
		t.Fatalf("registered %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registered %v, want %v", names, want)
		}
	}
	if _, ok := LookupOrienter(DefaultOrienterName); !ok {
		t.Fatalf("default orienter %q missing", DefaultOrienterName)
	}
	if _, ok := LookupOrienter("no-such-algo"); ok {
		t.Fatal("lookup of unknown name succeeded")
	}
	if got := len(Orienters()); got != len(want) {
		t.Fatalf("Orienters() returned %d entries", got)
	}
}

func TestRegisterOrienterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	o, _ := LookupOrienter(DefaultOrienterName)
	RegisterOrienter(o)
}

// TestOrienterContracts checks registry-level invariants on a budget
// grid: Guarantee is available exactly inside the supported region, its
// fields are sane, the representative budget is supported, and Orient
// refuses budgets outside the region.
func TestOrienterContracts(t *testing.T) {
	budgets := []struct {
		k   int
		phi float64
	}{
		{1, 0}, {1, 2 * math.Pi / 3}, {1, math.Pi}, {1, Phi1Full},
		{2, 0}, {2, Phi2Min}, {2, math.Pi}, {2, Phi2Full},
		{3, 0}, {3, Phi3Full}, {4, 0}, {4, Phi4Full}, {5, 0},
	}
	for _, o := range Orienters() {
		info := o.Info()
		if !o.Supports(info.RepK, info.RepPhi) {
			t.Errorf("%s: representative budget (%d, %.3f) unsupported", info.Name, info.RepK, info.RepPhi)
		}
		if o.Supports(0, math.Pi) || o.Supports(1, -1) || o.Supports(1, math.NaN()) {
			t.Errorf("%s: supports an invalid budget", info.Name)
		}
		for _, b := range budgets {
			g, ok := o.Guarantee(b.k, b.phi)
			if ok != o.Supports(b.k, b.phi) {
				t.Fatalf("%s (k=%d phi=%.3f): Guarantee ok=%v but Supports=%v",
					info.Name, b.k, b.phi, ok, o.Supports(b.k, b.phi))
			}
			if !ok {
				if _, _, err := o.Orient(pointset.Uniform(rand.New(rand.NewSource(1)), 20, 5), b.k, b.phi); err == nil {
					t.Fatalf("%s (k=%d phi=%.3f): Orient outside region did not error", info.Name, b.k, b.phi)
				}
				continue
			}
			if g.Stretch <= 0 || g.Antennae < 1 || g.Antennae > b.k || g.Spread > b.phi+geom.AngleEps || g.StrongC < 1 {
				t.Fatalf("%s (k=%d phi=%.3f): insane guarantee %+v", info.Name, b.k, b.phi, g)
			}
		}
	}
}

func TestCubePathHopsWithinTreeDistanceThree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 5, 17, 80, 250} {
		pts := pointset.Uniform(rng, n, 8)
		tree := mst.Euclidean(pts)
		rooted, err := mst.RootAtLeaf(tree)
		if err != nil {
			t.Fatal(err)
		}
		path := CubePath(rooted)
		if len(path) != len(pts) {
			t.Fatalf("n=%d: path visits %d vertices", n, len(path))
		}
		seen := make([]bool, len(pts))
		for _, v := range path {
			if seen[v] {
				t.Fatalf("n=%d: vertex %d visited twice", n, v)
			}
			seen[v] = true
		}
		for i := 0; i+1 < len(path); i++ {
			if d := treeDist(tree, path[i], path[i+1]); d > 3 {
				t.Fatalf("n=%d: hop %d->%d spans tree distance %d", n, path[i], path[i+1], d)
			}
		}
	}
}

// treeDist is the hop distance between u and v in the tree (BFS).
func treeDist(t *mst.Tree, u, v int) int {
	dist := make([]int, t.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == v {
			return dist[x]
		}
		for _, w := range t.Adj[x] {
			if dist[w] == -1 {
				dist[w] = dist[x] + 1
				queue = append(queue, w)
			}
		}
	}
	return -1
}

func TestTwoRayChains(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	families := map[string][]geom.Point{
		"uniform":   pointset.Uniform(rng, 150, 9),
		"clusters":  pointset.Clusters(rng, 150, 4, 12, 0.4),
		"collinear": pointset.Line(rng, 90, 1, 0),
		"lattice":   pointset.Grid(12, 12, 1),
		"two":       {{X: 0, Y: 0}, {X: 3, Y: 1}},
		"one":       {{X: 2, Y: 2}},
		"none":      nil,
	}
	for name, pts := range families {
		asg, res := OrientTwoRayChains(mst.Euclidean(pts), 2, 0)
		if len(res.Violations) > 0 {
			t.Fatalf("%s: violations: %v", name, res.Violations)
		}
		if !graph.StronglyConnected(asg.InducedDigraph()) {
			t.Fatalf("%s: not strongly connected", name)
		}
		if asg.MaxAntennas() > 2 {
			t.Fatalf("%s: %d antennae", name, asg.MaxAntennas())
		}
		if asg.MaxSpread() > geom.AngleEps {
			t.Fatalf("%s: spread %.6f", name, asg.MaxSpread())
		}
		if res.LMax > 0 && res.RadiusUsed > 2*res.LMax+geom.Eps {
			t.Fatalf("%s: radius %.6f exceeds 2·l_max %.6f", name, res.RadiusUsed, 2*res.LMax)
		}
	}
}

func TestBoundedAngleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	families := map[string][]geom.Point{
		"uniform":   pointset.Uniform(rng, 150, 9),
		"clusters":  pointset.Clusters(rng, 150, 4, 12, 0.4),
		"collinear": pointset.Line(rng, 90, 1, 0),
		"lattice":   pointset.Grid(12, 12, 1),
		"two":       {{X: 0, Y: 0}, {X: 3, Y: 1}},
		"one":       {{X: 2, Y: 2}},
	}
	for name, pts := range families {
		for _, phi := range []float64{math.Pi, 1.3 * math.Pi, Phi1Full} {
			asg, res := OrientBoundedAngleTree(mst.Euclidean(pts), 1, phi)
			if len(res.Violations) > 0 {
				t.Fatalf("%s phi=%.3f: violations: %v", name, phi, res.Violations)
			}
			if !verify.SymmetricConnected(asg.InducedDigraph()) {
				t.Fatalf("%s phi=%.3f: mutual edges do not connect the network", name, phi)
			}
			if asg.MaxAntennas() > 1 {
				t.Fatalf("%s phi=%.3f: %d antennae", name, phi, asg.MaxAntennas())
			}
			if asg.MaxSpread() > phi+geom.AngleEps {
				t.Fatalf("%s phi=%.3f: spread %.6f", name, phi, asg.MaxSpread())
			}
			if res.LMax > 0 && res.RadiusUsed > res.Bound*res.LMax+geom.Eps {
				t.Fatalf("%s phi=%.3f: radius %.6f exceeds %.3f·l_max", name, phi, res.RadiusUsed, res.Bound)
			}
		}
	}
	// The collinear EMST is itself a π-bounded-angle tree: the stretch-1
	// regime must kick in even below 8π/5.
	line := pointset.Line(rand.New(rand.NewSource(3)), 60, 1, 0)
	_, res := OrientBoundedAngleTree(mst.Euclidean(line), 1, math.Pi)
	if res.Cases["bats-mst-cover"] == 0 {
		t.Fatalf("collinear bats did not take the MST-cover regime: %v", res.Cases)
	}
	if res.LMax > 0 && res.RadiusUsed > res.LMax+geom.Eps {
		t.Fatalf("collinear bats radius %.6f exceeds l_max %.6f", res.RadiusUsed, res.LMax)
	}
}
