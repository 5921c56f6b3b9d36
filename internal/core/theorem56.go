package core

import (
	"math"
	"sort"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mst"
)

// OrientThreeAntennae implements Theorem 5: three zero-spread antennae per
// sensor achieve strong connectivity with radius at most √3·l_max. The
// induction keeps every subtree root's out-degree ≤ 2: a parent points at
// the heads of at most two child chains, and consecutive children bridge
// cyclic angular gaps ≤ 2π/3 (so sibling hops are ≤ 2·sin(π/3) = √3).
func OrientThreeAntennae(tree *mst.Tree, phi float64) (*antenna.Assignment, *Result) {
	return orientChains(tree, 3, phi, 2*math.Pi/3, 2, "theorem5-chains")
}

// OrientFourAntennae implements Theorem 6: four zero-spread antennae per
// sensor achieve strong connectivity with radius at most √2·l_max, with
// subtree-root out-degree ≤ 3 and sibling bridges across gaps ≤ π/2.
func OrientFourAntennae(tree *mst.Tree, phi float64) (*antenna.Assignment, *Result) {
	return orientChains(tree, 4, phi, math.Pi/2, 3, "theorem6-chains")
}

// orientChains is the shared Theorem 5/6 engine. threshold is the largest
// sibling gap the construction may bridge; maxOut the out-degree budget of
// a subtree root (k−1, reserving one antenna as the "spare" its own parent
// directs).
func orientChains(tree *mst.Tree, k int, phi, threshold float64, maxOut int, name string) (*antenna.Assignment, *Result) {
	pts := tree.Pts
	res := newResult(name, k, phi)
	asg := antenna.New(pts)
	if len(pts) <= 1 {
		res.bump("trivial")
		return asg, res
	}
	res.LMax = tree.LMax()
	rBound := res.Bound * res.LMax

	// Root at a maximum-degree vertex so the paper's d=5 figures are
	// exercised whenever the tree has one.
	root := 0
	for v := 0; v < tree.N(); v++ {
		if tree.Degree(v) > tree.Degree(root) {
			root = v
		}
	}
	rooted, err := mst.RootAt(tree, root)
	if err != nil {
		res.checkf(false, "rooting failed: %v", err)
		return asg, res
	}

	for u := 0; u < tree.N(); u++ {
		ch := rooted.ChildrenCCWFrom(u, 0)
		m := len(ch)
		if m == 0 {
			continue
		}
		res.bump(caseLabel("children", m))
		chains := planChains(pts, u, ch, k, threshold, res)
		res.checkf(len(chains) <= maxOut,
			"vertex %d: out-degree %d exceeds %d", u, len(chains), maxOut)
		for _, chain := range chains {
			// Parent covers the head.
			asg.AddRayTo(u, chain[0], pts[u].Dist(pts[chain[0]]))
			// Members cover the next; the tail covers the parent.
			for i := 0; i < len(chain); i++ {
				var target int
				if i+1 < len(chain) {
					target = chain[i+1]
					d := pts[chain[i]].Dist(pts[target])
					res.checkf(d <= rBound+geom.Eps,
						"vertex %d: sibling hop %d->%d length %.6f exceeds %.6f",
						u, chain[i], target, d, rBound)
				} else {
					target = u
				}
				asg.AddRayTo(chain[i], target, pts[chain[i]].Dist(pts[target]))
			}
			if len(chain) > 1 {
				res.bump(caseLabel("chain", len(chain)))
			}
		}
	}
	res.RadiusUsed = asg.MaxRadius()
	res.SpreadUsed = asg.MaxSpread()
	res.checkf(asg.MaxAntennas() <= k, "a sensor uses %d antennae, budget %d", asg.MaxAntennas(), k)
	res.checkf(res.RadiusUsed <= rBound+geom.Eps,
		"radius used %.6f exceeds bound %.6f", res.RadiusUsed, rBound)
	return asg, res
}

// planChains partitions u's children (given in CCW order) into chains of
// cyclically consecutive children whose internal gaps are ≤ threshold.
// The number of chains is ≤ 2 for k=3 and ≤ 3 for k=4, per the geometric
// pigeonhole arguments in the proofs of Theorems 5 and 6 (validated at
// runtime through res).
func planChains(pts []geom.Point, u int, ch []int, k int, threshold float64, res *Result) [][]int {
	m := len(ch)
	gapW := make([]float64, m)
	for i := range ch {
		a := geom.Dir(pts[u], pts[ch[i]])
		b := geom.Dir(pts[u], pts[ch[(i+1)%m]])
		gapW[i] = geom.CCW(a, b)
	}
	if m == 1 {
		gapW[0] = geom.TwoPi
	}
	singles := func(idxs ...int) [][]int {
		out := make([][]int, 0, len(idxs))
		for _, i := range idxs {
			out = append(out, []int{ch[i]})
		}
		return out
	}
	seq := func(start, count int) []int {
		out := make([]int, 0, count)
		for j := 0; j < count; j++ {
			out = append(out, ch[(start+j)%m])
		}
		return out
	}

	if k == 3 {
		switch {
		case m <= 2:
			idxs := make([]int, m)
			for i := range idxs {
				idxs[i] = i
			}
			return singles(idxs...)
		case m == 3:
			// Bridge the narrowest gap; the third child is direct.
			i := argmin(gapW)
			res.checkf(gapW[i] <= threshold+geom.AngleEps,
				"vertex %d: min gap %.6f > 2π/3 among 3 children", u, gapW[i])
			return append([][]int{seq(i, 2)}, singles((i+2)%m)...)
		default: // m == 4 or 5
			// Break the circle at the widest gap; at most one gap can
			// exceed 2π/3 when all child gaps are ≥ π/3 (Fact 1), so the
			// remaining m−1 gaps all bridge.
			L := argmax(gapW)
			for j := 0; j < m-1; j++ {
				g := gapW[(L+1+j)%m]
				res.checkf(g <= threshold+geom.AngleEps,
					"vertex %d: chain gap %.6f > 2π/3 with %d children", u, g, m)
			}
			return [][]int{seq((L+1)%m, m)}
		}
	}

	// k == 4.
	switch {
	case m <= 3:
		idxs := make([]int, m)
		for i := range idxs {
			idxs[i] = i
		}
		return singles(idxs...)
	case m == 4:
		// Bridge the narrowest gap (≤ 2π/4 = π/2 by pigeonhole).
		i := argmin(gapW)
		res.checkf(gapW[i] <= threshold+geom.AngleEps,
			"vertex %d: min gap %.6f > π/2 among 4 children", u, gapW[i])
		return append([][]int{seq(i, 2)}, singles((i+2)%m, (i+3)%m)...)
	default: // m == 5
		// Two gaps are ≤ π/2 (four gaps > π/2 would exceed 2π). Adjacent
		// small gaps form one 3-chain; otherwise two disjoint pairs.
		order := make([]int, m)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return gapW[order[a]] < gapW[order[b]] })
		i1, i2 := order[0], order[1]
		res.checkf(gapW[i1] <= threshold+geom.AngleEps && gapW[i2] <= threshold+geom.AngleEps,
			"vertex %d: two smallest gaps %.6f, %.6f exceed π/2", u, gapW[i1], gapW[i2])
		switch {
		case (i1+1)%m == i2:
			return append([][]int{seq(i1, 3)}, singles((i1+3)%m, (i1+4)%m)...)
		case (i2+1)%m == i1:
			return append([][]int{seq(i2, 3)}, singles((i2+3)%m, (i2+4)%m)...)
		default:
			// Two disjoint pairs plus the leftover child.
			used := map[int]bool{i1: true, (i1 + 1) % m: true, i2: true, (i2 + 1) % m: true}
			rest := -1
			for i := 0; i < m; i++ {
				if !used[i] {
					rest = i
					break
				}
			}
			return append([][]int{seq(i1, 2), seq(i2, 2)}, singles(rest)...)
		}
	}
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
