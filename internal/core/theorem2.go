package core

import (
	"math"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mst"
)

// OrientFullCover implements Theorem 2 (and the k=5 folklore row, and the
// k=1, φ ≥ 8π/5 row of [4]): on a max-degree-5 Euclidean MST, every vertex
// covers all its tree neighbors with k antennae, making every tree edge
// bidirectional, hence the network strongly connected at radius l_max.
//
// By Lemma 1 the per-vertex spread needed is at most 2π(d−k)/d ≤
// 2π(5−k)/5, so the assignment satisfies the budget whenever
// phi ≥ 2π(5−k)/5; smaller budgets are recorded as violations (the caller
// chose the wrong row). literal selects the paper's verbatim Lemma 1
// construction instead of the optimal gap cover (ablation E-A1).
func OrientFullCover(tree *mst.Tree, k int, phi float64, literal bool) (*antenna.Assignment, *Result) {
	pts := tree.Pts
	name := "theorem2-cover"
	if literal {
		name = "theorem2-cover-literal"
	}
	res := newResult(name, k, phi)
	asg := antenna.New(pts)
	if len(pts) <= 1 {
		res.bump("trivial")
		return asg, res
	}
	res.LMax = tree.LMax()
	for u := 0; u < tree.N(); u++ {
		nbs := tree.Adj[u]
		targets := make([]geom.Point, len(nbs))
		for i, v := range nbs {
			targets[i] = pts[v]
		}
		var secs []geom.Sector
		if literal {
			secs = CoverSectorsLiteral(pts[u], targets, k)
		} else {
			secs = CoverSectors(pts[u], targets, k)
		}
		var spread float64
		for _, s := range secs {
			asg.Add(u, s)
			spread += s.Spread
		}
		d := len(nbs)
		res.bump(caseLabel("deg", d))
		if d > k {
			want := geom.TwoPi * float64(d-k) / float64(d)
			res.checkf(spread <= want+geom.AngleEps,
				"vertex %d: cover spread %.6f exceeds Lemma 1 bound %.6f (d=%d k=%d)", u, spread, want, d, k)
		} else {
			res.checkf(spread <= geom.AngleEps,
				"vertex %d: spread %.6f should be 0 when k >= d", u, spread)
		}
		res.checkf(spread <= phi+geom.AngleEps,
			"vertex %d: cover spread %.6f exceeds budget %.6f", u, spread, phi)
		if spread > res.SpreadUsed {
			res.SpreadUsed = spread
		}
	}
	res.RadiusUsed = asg.MaxRadius()
	res.checkf(res.RadiusUsed <= res.LMax+geom.Eps,
		"cover radius %.6f exceeds l_max %.6f", res.RadiusUsed, res.LMax)
	return asg, res
}

// MinSpreadForFullCover returns the worst-case per-vertex spread a point
// set needs for the full-cover strategy with k antennae: the maximum over
// vertices of the optimal k-cover spread of its MST neighbor rays. This is
// the empirical counterpart of Lemma 1's 2π(d−k)/d bound.
func MinSpreadForFullCover(pts []geom.Point, k int) float64 {
	if len(pts) <= 1 {
		return 0
	}
	tree := mst.Euclidean(pts)
	var worst float64
	for u := 0; u < tree.N(); u++ {
		dirs := make([]float64, len(tree.Adj[u]))
		for i, v := range tree.Adj[u] {
			dirs[i] = geom.Dir(pts[u], pts[v])
		}
		if s := geom.MinCoverSpread(dirs, k); s > worst {
			worst = s
		}
	}
	return worst
}

func caseLabel(prefix string, v int) string {
	const digits = "0123456789"
	if v < 10 {
		return prefix + "-" + digits[v:v+1]
	}
	return prefix + "-big"
}

// theorem2Threshold returns 2π(5−k)/5, the spread at which Theorem 2
// guarantees radius 1 for k antennae.
func theorem2Threshold(k int) float64 {
	if k >= 5 {
		return 0
	}
	return 2 * math.Pi * float64(5-k) / 5
}
