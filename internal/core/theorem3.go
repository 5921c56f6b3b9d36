package core

import (
	"math"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mst"
)

// OrientTwoAntennae implements Theorem 3, the paper's main result: two
// antennae per sensor whose spreads sum to φ₂ achieve strong connectivity
// with radius
//
//	r ≤ 2·sin(2π/9)·l_max         when φ₂ ≥ π   (part 1), and
//	r ≤ 2·sin(π/2 − φ₂/4)·l_max   when 2π/3 ≤ φ₂ < π (part 2).
//
// Both parts run the same Property-1 induction over a leaf-rooted
// max-degree-5 EMST: each vertex u receives a target point p (its parent,
// or a sibling chosen by the parent) within the radius bound, and must
// direct its two antennae so p is covered and the subtree stays strongly
// connected. The case analysis follows the paper's Figures 3 (part 1) and
// 4 (part 2) exactly; every angular inequality the proof relies on is
// checked at runtime and recorded as a violation if it fails.
func OrientTwoAntennae(tree *mst.Tree, phi float64) (*antenna.Assignment, *Result) {
	pts := tree.Pts
	part1 := phi >= math.Pi-geom.AngleEps
	name := "theorem3-part2"
	if part1 {
		name = "theorem3-part1"
	}
	res := newResult(name, 2, phi)
	asg := antenna.New(pts)
	res.checkf(phi >= Phi2Min-geom.AngleEps, "phi %.6f < 2π/3 not supported by Theorem 3", phi)
	if len(pts) <= 1 {
		res.bump("trivial")
		return asg, res
	}
	res.LMax = tree.LMax()
	rooted, err := mst.RootAtLeaf(tree)
	if err != nil {
		res.checkf(false, "rooting failed: %v", err)
		return asg, res
	}
	c := &t3ctx{
		res:    res,
		asg:    asg,
		rooted: rooted,
		phi:    phi,
		part1:  part1,
		rBound: res.Bound * res.LMax,
	}

	// Root is a leaf: one zero-spread antenna to its only child; the
	// child covers the root back. The second antenna stays unused.
	root := rooted.Root
	child := rooted.Children[root][0]
	asg.AddRayTo(root, child, pts[root].Dist(pts[child]))
	res.bump("root")
	c.push(child, pts[root])

	for len(c.stack) > 0 {
		tk := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		c.orient(tk.u, tk.target)
	}
	res.RadiusUsed = asg.MaxRadius()
	res.SpreadUsed = asg.MaxSpread()
	res.checkf(res.SpreadUsed <= phi+geom.AngleEps,
		"spread used %.6f exceeds phi %.6f", res.SpreadUsed, phi)
	res.checkf(asg.MaxAntennas() <= 2, "a sensor uses %d antennae", asg.MaxAntennas())
	return asg, res
}

type t3task struct {
	u      int
	target geom.Point
}

type t3ctx struct {
	res    *Result
	asg    *antenna.Assignment
	rooted *mst.Rooted
	phi    float64
	part1  bool
	rBound float64
	stack  []t3task
}

func (c *t3ctx) push(u int, target geom.Point) {
	c.stack = append(c.stack, t3task{u, target})
}

// pushSibling assigns child `from` the sibling target `to`, checking the
// radius invariant d(from, to) ≤ R.
func (c *t3ctx) pushSibling(u, from, to int) {
	d := c.rooted.Pts[from].Dist(c.rooted.Pts[to])
	c.res.checkf(d <= c.rBound+geom.Eps,
		"vertex %d: sibling target %d->%d at distance %.6f exceeds R %.6f", u, from, to, d, c.rBound)
	c.push(from, c.rooted.Pts[to])
}

// addWide emits a sector at u starting at the ray towards `startAt`,
// sweeping `spread` CCW, with radius reaching every target in `targets`.
func (c *t3ctx) addWide(u int, startDir, spread float64, targets ...geom.Point) {
	pts := c.rooted.Pts
	var far float64
	for _, q := range targets {
		if d := pts[u].Dist(q); d > far {
			far = d
		}
	}
	c.res.checkf(spread <= c.phi+geom.AngleEps,
		"vertex %d: wide antenna spread %.6f exceeds phi %.6f", u, spread, c.phi)
	c.asg.Add(u, geom.NewSector(startDir, spread, far))
}

// orient discharges the Property-1 obligation at u with target p.
func (c *t3ctx) orient(u int, p geom.Point) {
	pts := c.rooted.Pts
	c.res.checkf(pts[u].Dist(p) <= c.rBound+geom.Eps,
		"vertex %d: target at distance %.6f exceeds R %.6f", u, pts[u].Dist(p), c.rBound)
	children := c.rooted.Children[u]
	switch len(children) {
	case 0:
		// Leaf: one zero-spread antenna at p (Fig. 3(a) degenerate).
		c.asg.AddRay(u, p, pts[u].Dist(p))
		c.res.bump("t3-leaf")
	case 1:
		// δ(u) = 2: two zero-spread antennae (Fig. 3(a)).
		c.asg.AddRay(u, p, pts[u].Dist(p))
		c.asg.AddRayTo(u, children[0], pts[u].Dist(pts[children[0]]))
		c.push(children[0], pts[u])
		c.res.bump("t3-deg2")
	case 2:
		c.orientDeg3(u, p)
	case 3:
		if c.part1 {
			c.orientDeg4Part1(u, p)
		} else {
			c.orientDeg4Part2(u, p)
		}
	case 4:
		if c.part1 {
			c.orientDeg5Part1(u, p)
		} else {
			c.orientDeg5Part2(u, p)
		}
	default:
		// Degree > 5 violates the MST invariant; fall back to a cover.
		c.res.checkf(false, "vertex %d has %d children (degree > 5)", u, len(children))
		targets := []geom.Point{p}
		for _, ch := range children {
			targets = append(targets, pts[ch])
			c.push(ch, pts[u])
		}
		for _, s := range CoverSectors(pts[u], targets, 2) {
			c.asg.Add(u, s)
		}
	}
}

// orientDeg3 handles δ(u) = 3 (two children), shared by both parts
// (Fig. 3(b)): the narrowest of the three cyclic gaps is ≤ 2π/3 ≤ φ₂; one
// wide antenna spans it and a zero-spread antenna covers the remaining
// ray. Both children cover u.
func (c *t3ctx) orientDeg3(u int, p geom.Point) {
	pts := c.rooted.Pts
	dirP := geom.Dir(pts[u], p)
	ch := c.rooted.ChildrenCCWFrom(u, dirP)
	c1, c2 := ch[0], ch[1]
	d1 := geom.Dir(pts[u], pts[c1])
	d2 := geom.Dir(pts[u], pts[c2])
	g0 := geom.CCW(dirP, d1) // p -> u(1)
	g1 := geom.CCW(d1, d2)   // u(1) -> u(2)
	g2 := geom.CCW(d2, dirP) // u(2) -> p
	minG := math.Min(g0, math.Min(g1, g2))
	c.res.checkf(minG <= 2*math.Pi/3+geom.AngleEps,
		"vertex %d: min gap %.6f > 2π/3 at degree 3", u, minG)
	switch {
	case g0 <= g1 && g0 <= g2:
		c.addWide(u, dirP, g0, p, pts[c1])
		c.asg.AddRayTo(u, c2, pts[u].Dist(pts[c2]))
		c.res.bump("t3-deg3-gap-p-c1")
	case g1 <= g2:
		c.addWide(u, d1, g1, pts[c1], pts[c2])
		c.asg.AddRay(u, p, pts[u].Dist(p))
		c.res.bump("t3-deg3-gap-c1-c2")
	default:
		c.addWide(u, d2, g2, pts[c2], p)
		c.asg.AddRayTo(u, c1, pts[u].Dist(pts[c1]))
		c.res.bump("t3-deg3-gap-c2-p")
	}
	c.push(c1, pts[u])
	c.push(c2, pts[u])
}

// orientDeg4Part1 handles δ(u) = 4 for φ₂ ≥ π (Fig. 3(c)): one of the two
// arcs bounded by rays ~up and ~uu(2) is ≤ π; a π-antenna covers that arc
// (p plus one or two children) and a zero-spread antenna covers the child
// left out. All children target u.
func (c *t3ctx) orientDeg4Part1(u int, p geom.Point) {
	pts := c.rooted.Pts
	dirP := geom.Dir(pts[u], p)
	ch := c.rooted.ChildrenCCWFrom(u, dirP)
	c1, c2, c3 := ch[0], ch[1], ch[2]
	d2 := geom.Dir(pts[u], pts[c2])
	a := geom.CCW(dirP, d2) // p -> u(2) through u(1)
	if a <= math.Pi+geom.AngleEps {
		c.addWide(u, dirP, a, p, pts[c1], pts[c2])
		c.asg.AddRayTo(u, c3, pts[u].Dist(pts[c3]))
		c.res.bump("t3-deg4p1-forward")
	} else {
		b := geom.TwoPi - a // u(2) -> p through u(3)
		c.res.checkf(b <= math.Pi+geom.AngleEps, "vertex %d: both δ=4 arcs exceed π", u)
		c.addWide(u, d2, b, pts[c2], pts[c3], p)
		c.asg.AddRayTo(u, c1, pts[u].Dist(pts[c1]))
		c.res.bump("t3-deg4p1-backward")
	}
	c.push(c1, pts[u])
	c.push(c2, pts[u])
	c.push(c3, pts[u])
}

// orientDeg5Part1 handles δ(u) = 5 for φ₂ ≥ π (Figs. 3(d), 3(e)).
func (c *t3ctx) orientDeg5Part1(u int, p geom.Point) {
	pts := c.rooted.Pts
	dirP := geom.Dir(pts[u], p)
	ch := c.rooted.ChildrenCCWFrom(u, dirP)
	c1, c2, c3, c4 := ch[0], ch[1], ch[2], ch[3]
	d1 := geom.Dir(pts[u], pts[c1])
	d2 := geom.Dir(pts[u], pts[c2])
	d3 := geom.Dir(pts[u], pts[c3])
	d4 := geom.Dir(pts[u], pts[c4])
	parent := c.rooted.Parent[u]
	c.res.checkf(parent >= 0, "degree-5 vertex %d must have a parent (root is a leaf)", u)
	dirPP := geom.Dir(pts[u], pts[parent])
	// Is the tree parent inside the sector from ~uu(4) CCW to ~uu(1)
	// (the sector that contains the target p)?
	a41 := geom.CCW(d4, d1)
	ppInside := geom.CCW(d4, dirPP) <= a41+geom.AngleEps

	if ppInside {
		// Fig. 3(d): wide π-antenna over [~uu(4), ~uu(1)] covering
		// u(4), p, u(1); the narrowest child gap (≤ 4π/9) is bridged by
		// a sibling, and the zero-spread antenna covers the child that
		// the bridge doesn't reach.
		c.res.checkf(a41 <= math.Pi+geom.AngleEps && a41 >= 2*math.Pi/3-geom.AngleEps,
			"vertex %d: ∠u(4)u u(1) = %.6f outside [2π/3, π]", u, a41)
		g1 := geom.CCW(d1, d2)
		g2 := geom.CCW(d2, d3)
		g3 := geom.CCW(d3, d4)
		minG := math.Min(g1, math.Min(g2, g3))
		c.res.checkf(minG <= 4*math.Pi/9+geom.AngleEps,
			"vertex %d: min inner gap %.6f > 4π/9", u, minG)
		c.addWide(u, d4, a41, pts[c4], p, pts[c1])
		switch {
		case g1 <= g2 && g1 <= g3:
			c.asg.AddRayTo(u, c3, pts[u].Dist(pts[c3]))
			c.pushSibling(u, c1, c2)
			c.push(c2, pts[u])
			c.push(c3, pts[u])
			c.push(c4, pts[u])
			c.res.bump("t3-deg5p1-inside-g1")
		case g2 <= g3:
			c.asg.AddRayTo(u, c2, pts[u].Dist(pts[c2]))
			c.pushSibling(u, c2, c3)
			c.push(c1, pts[u])
			c.push(c3, pts[u])
			c.push(c4, pts[u])
			c.res.bump("t3-deg5p1-inside-g2")
		default:
			c.asg.AddRayTo(u, c2, pts[u].Dist(pts[c2]))
			c.pushSibling(u, c4, c3)
			c.push(c1, pts[u])
			c.push(c2, pts[u])
			c.push(c3, pts[u])
			c.res.bump("t3-deg5p1-inside-g3")
		}
		return
	}
	// Fig. 3(e): the parent hides in one of the inner gaps. Whichever of
	// the sectors [~uu(1),~uu(2)] / [~uu(3),~uu(4)] is parent-free, the
	// two-apart arc across it is in [2π/3, π] and a π-antenna covers four
	// rays; the zero-spread antenna takes the remaining child.
	g12HasPP := geom.CCW(d1, dirPP) <= geom.CCW(d1, d2)+geom.AngleEps
	if !g12HasPP {
		// Sector [~uu(4), ~uu(2)] covers u(4), p, u(1), u(2).
		a42 := geom.CCW(d4, d2)
		c.res.checkf(a42 <= math.Pi+geom.AngleEps && a42 >= 2*math.Pi/3-geom.AngleEps,
			"vertex %d: ∠u(4)u u(2) = %.6f outside [2π/3, π]", u, a42)
		c.addWide(u, d4, a42, pts[c4], p, pts[c1], pts[c2])
		c.asg.AddRayTo(u, c3, pts[u].Dist(pts[c3]))
		c.res.bump("t3-deg5p1-outside-fwd")
	} else {
		// Parent sits in [~uu(1), ~uu(2)], so [~uu(3), ~uu(4)] is free:
		// sector [~uu(3), ~uu(1)] covers u(3), u(4), p, u(1).
		a31 := geom.CCW(d3, d1)
		c.res.checkf(a31 <= math.Pi+geom.AngleEps && a31 >= 2*math.Pi/3-geom.AngleEps,
			"vertex %d: ∠u(3)u u(1) = %.6f outside [2π/3, π]", u, a31)
		c.addWide(u, d3, a31, pts[c3], pts[c4], p, pts[c1])
		c.asg.AddRayTo(u, c2, pts[u].Dist(pts[c2]))
		c.res.bump("t3-deg5p1-outside-bwd")
	}
	c.push(c1, pts[u])
	c.push(c2, pts[u])
	c.push(c3, pts[u])
	c.push(c4, pts[u])
}
