package core

import (
	"math"
	"sort"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mst"
)

// k1Task is a Property-1 obligation: vertex u must cover the target point
// with its (single) antenna while its subtree stays strongly connected.
type k1Task struct {
	u      int
	target geom.Point
}

// k1ctx carries the state of the single-antenna induction.
type k1ctx struct {
	res    *Result
	asg    *antenna.Assignment
	rooted *mst.Rooted
	phi    float64
	rBound float64 // absolute radius bound
	stack  []k1Task
}

// OrientOneAntenna orients a single antenna of spread phi ∈ [π, 2π) per
// sensor so the network is strongly connected with radius at most
// 2·sin(π − φ/2)·l_max (and l_max once φ ≥ 8π/5, when a single arc always
// covers everything by the 5-ray pigeonhole). This reproduces the
// prior-work row [4] of Table 1 with the same guarantee; see DESIGN.md §6
// for why the reconstruction preserves the bound.
//
// The construction is a Property-1 induction on a leaf-rooted
// max-degree-5 EMST. At vertex u with target p (parent or assigned
// sibling):
//
//   - If one arc of spread ≤ φ covers p and every child, use it.
//   - Otherwise anchor the arc at the child angularly adjacent to p — on
//     whichever side needs ≤ φ of sweep; one side always does because the
//     two sweeps sum to ≤ 2π ≤ 2φ. Every child left dark then lies in a
//     block of width < 2π − φ beside the anchor, so anchor → x₁ → … → x_m
//     chains them with hops ≤ 2·sin((2π−φ)/2) = 2·sin(π − φ/2) · l_max,
//     and x_m covers u.
func OrientOneAntenna(tree *mst.Tree, phi float64) (*antenna.Assignment, *Result) {
	pts := tree.Pts
	res := newResult("k1-anchored-arc", 1, phi)
	asg := antenna.New(pts)
	res.checkf(phi >= math.Pi-geom.AngleEps, "phi %.6f < π not supported by the k=1 induction", phi)
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
	c := &k1ctx{res: res, asg: asg, rooted: rooted, phi: phi, rBound: res.Bound * res.LMax}

	// The leaf root points its antenna at its only child; the child
	// covers the root back.
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
	res.checkf(res.SpreadUsed <= phi+geom.AngleEps, "spread used %.6f exceeds phi %.6f", res.SpreadUsed, phi)
	return asg, res
}

func (c *k1ctx) push(u int, target geom.Point) {
	c.stack = append(c.stack, k1Task{u, target})
}

// orient discharges the Property-1 obligation at u.
func (c *k1ctx) orient(u int, p geom.Point) {
	pts := c.rooted.Pts
	c.res.checkf(pts[u].Dist(p) <= c.rBound+geom.Eps,
		"vertex %d: target at distance %.6f exceeds R %.6f", u, pts[u].Dist(p), c.rBound)
	children := c.rooted.Children[u]
	if len(children) == 0 {
		c.asg.AddRay(u, p, pts[u].Dist(p))
		c.res.bump("k1-leaf")
		return
	}
	rays := make([]geom.Point, 0, len(children)+1)
	rays = append(rays, p)
	for _, ch := range children {
		rays = append(rays, pts[ch])
	}
	if s, ok := geom.CoverAllSector(pts[u], rays, 0); ok && s.Spread <= c.phi+geom.AngleEps {
		var far float64
		for _, q := range rays {
			if d := pts[u].Dist(q); d > far {
				far = d
			}
		}
		s.Radius = far
		c.asg.Add(u, s)
		for _, ch := range children {
			c.push(ch, pts[u])
		}
		c.res.bump("k1-full")
		return
	}
	// Anchored arc: children sorted CCW starting from the ray to p.
	dirP := geom.Dir(pts[u], p)
	ccw := c.rooted.ChildrenCCWFrom(u, dirP)
	first := ccw[0]
	last := ccw[len(ccw)-1]
	g1 := geom.CCW(geom.Dir(pts[u], pts[last]), dirP) // sweep: last child CCW to p
	g2 := geom.CCW(dirP, geom.Dir(pts[u], pts[first]))
	if g1 <= g2 {
		c.res.checkf(g1 <= c.phi+geom.AngleEps, "vertex %d: CCW anchor sweep %.6f > phi", u, g1)
		c.anchored(u, p, ccw, len(ccw)-1, false)
		c.res.bump("k1-anchor-ccw")
	} else {
		c.res.checkf(g2 <= c.phi+geom.AngleEps, "vertex %d: CW anchor sweep %.6f > phi", u, g2)
		c.anchored(u, p, ccw, 0, true)
		c.res.bump("k1-anchor-cw")
	}
}

// anchored emits the arc anchored at ccw[anchorIdx] (opening CCW, or CW
// when mirrored) plus the sibling chain across the dark block.
func (c *k1ctx) anchored(u int, p geom.Point, ccw []int, anchorIdx int, mirrored bool) {
	pts := c.rooted.Pts
	anchor := ccw[anchorIdx]
	anchorDir := geom.Dir(pts[u], pts[anchor])
	sweep := func(q geom.Point) float64 {
		if mirrored {
			return geom.CW(anchorDir, geom.Dir(pts[u], q))
		}
		return geom.CCW(anchorDir, geom.Dir(pts[u], q))
	}
	var spread, far float64
	covered := make([]bool, len(ccw))
	for i, ch := range ccw {
		s := sweep(pts[ch])
		if i == anchorIdx {
			s = 0
		}
		if s <= c.phi+geom.AngleEps {
			covered[i] = true
			if s > spread {
				spread = s
			}
			if d := pts[u].Dist(pts[ch]); d > far {
				far = d
			}
		}
	}
	sp := sweep(p)
	c.res.checkf(sp <= c.phi+geom.AngleEps, "vertex %d: anchored arc misses its target", u)
	if sp > spread {
		spread = sp
	}
	if d := pts[u].Dist(p); d > far {
		far = d
	}
	start := anchorDir
	if mirrored {
		start = anchorDir - spread
	}
	c.asg.Add(u, geom.NewSector(start, spread, far))

	// Dark children, walked from the one angularly nearest the anchor on
	// the dark side (largest sweep first).
	type dark struct {
		ch int
		s  float64
	}
	var blocks []dark
	for i, ch := range ccw {
		if !covered[i] {
			blocks = append(blocks, dark{ch, sweep(pts[ch])})
		}
	}
	sort.Slice(blocks, func(a, b int) bool { return blocks[a].s > blocks[b].s })
	prev := anchor
	for _, b := range blocks {
		c.res.checkf(pts[prev].Dist(pts[b.ch]) <= c.rBound+geom.Eps,
			"vertex %d: chain hop %d->%d length %.6f exceeds R %.6f",
			u, prev, b.ch, pts[prev].Dist(pts[b.ch]), c.rBound)
		c.push(prev, pts[b.ch])
		prev = b.ch
	}
	c.push(prev, pts[u])
	if len(blocks) > 0 {
		c.res.bump("k1-chain")
	}
	for i, ch := range ccw {
		if i == anchorIdx || !covered[i] {
			continue
		}
		c.push(ch, pts[u])
	}
}
