package repro

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/plan"
	"repro/internal/pointset"
	"repro/internal/verify"
)

// TestSharedTreeIsReadOnly pins the contract that lets one EMST serve a
// whole solve: every registered orienter, at every portfolio budget it
// supports, leaves the tree it is handed exactly as it found it (edges
// and adjacency), and the verifier fed that tree's bottleneck as
// KnownLMax — as the engine does — reports exactly what it reports when
// it recomputes l_max itself.
func TestSharedTreeIsReadOnly(t *testing.T) {
	fams := map[string][]geom.Point{
		"uniform":    pointset.Workload("uniform", rand.New(rand.NewSource(5)), 300),
		"clusters":   pointset.Workload("clusters", rand.New(rand.NewSource(6)), 300),
		"cocircular": adversarialFamilies()["cocircular"],
	}
	for name, pts := range fams {
		tree := mst.Euclidean(pts)
		edges := append([][2]int(nil), tree.Edges()...)
		adj := make([][]int, len(tree.Adj))
		for v, nbs := range tree.Adj {
			adj[v] = append([]int(nil), nbs...)
		}
		lmax := tree.LMax()
		for _, o := range core.Orienters() {
			for _, b := range core.PortfolioBudgets() {
				if !o.Supports(b.K, b.Phi) {
					continue
				}
				algo := o.Info().Name
				asg, _, err := o.OrientTree(context.Background(), tree, b.K, b.Phi)
				if !reflect.DeepEqual(tree.Edges(), edges) || !reflect.DeepEqual(tree.Adj, adj) {
					t.Fatalf("%s/%s k=%d phi=%.4f mutated the shared tree", name, algo, b.K, b.Phi)
				}
				if err != nil {
					t.Fatalf("%s/%s k=%d phi=%.4f: %v", name, algo, b.K, b.Phi, err)
				}
				g, _ := o.Guarantee(b.K, b.Phi)
				budgets := plan.VerifyBudgets(g)
				fresh := verify.Check(asg, budgets)
				budgets.KnownLMax = lmax
				if shared := verify.Check(asg, budgets); !reflect.DeepEqual(shared, fresh) {
					t.Fatalf("%s/%s k=%d phi=%.4f: report with the shared l_max\n%v\ndiffers from the recomputed one\n%v",
						name, algo, b.K, b.Phi, shared, fresh)
				}
			}
		}
	}
}
