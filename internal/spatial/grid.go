// Package spatial provides a uniform grid index over planar points used to
// answer radius queries (all points within distance r) and nearest-neighbor
// queries in near-constant expected time. It is the workhorse behind
// induced-transmission-graph construction and candidate filtering at
// large n.
//
// The index is laid out as a flat counting-sort (CSR-style) bucket array
// rather than a hash map: one pass counts points per cell, a prefix sum
// assigns bucket offsets, and a second pass scatters point indices. Radius
// queries then touch only contiguous slices, with no hashing or per-bucket
// allocation on the hot path.
package spatial

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Grid is an immutable uniform bucket grid over a point set.
type Grid struct {
	pts     []geom.Point
	cell    float64
	invCell float64 // 1/cell: multiply instead of divide on query paths
	minX    float64
	minY    float64
	nx, ny  int
	start   []int32 // CSR offsets: bucket c occupies idx[start[c]:start[c+1]]
	idx     []int32 // point indices grouped by cell, increasing within a cell
}

// NewGrid indexes pts with the given cell size. A non-positive cell size is
// replaced by a heuristic (side of bounding-box area / n, clamped to a
// positive value). A requested cell size that would allocate far more cells
// than points is coarsened so the bucket array stays O(n).
func NewGrid(pts []geom.Point, cell float64) *Grid {
	g := &Grid{pts: pts}
	min, max := geom.BoundingBox(pts)
	g.minX, g.minY = min.X, min.Y
	w := max.X - min.X
	h := max.Y - min.Y
	if cell <= 0 {
		if len(pts) > 0 && w*h > 0 {
			cell = math.Sqrt(w * h / float64(len(pts)))
		}
		if cell <= 0 {
			cell = 1
		}
	}
	// Keep the dense bucket array proportional to n: a tiny cell over a
	// huge span would otherwise allocate (w/cell)·(h/cell) buckets. The
	// cap test runs in float space so extreme spans cannot overflow int.
	maxCells := 4*len(pts) + 64
	for (w/cell+1)*(h/cell+1) > float64(maxCells) {
		cell *= 2
	}
	g.cell = cell
	g.invCell = 1 / cell
	g.nx = int(w/cell) + 1
	g.ny = int(h/cell) + 1

	nCells := g.nx * g.ny
	g.start = make([]int32, nCells+1)
	g.idx = make([]int32, len(pts))
	for _, p := range pts {
		g.start[g.cellIndex(p)+1]++
	}
	for c := 0; c < nCells; c++ {
		g.start[c+1] += g.start[c]
	}
	fill := make([]int32, nCells)
	for i, p := range pts {
		c := g.cellIndex(p)
		g.idx[g.start[c]+fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// CellSize returns the grid cell edge length (possibly coarsened from the
// requested size, see NewGrid).
func (g *Grid) CellSize() float64 { return g.cell }

// cellOf returns the (possibly out-of-range) cell coordinates of p. The
// int conversion truncates toward zero rather than flooring, which is
// equivalent for every caller because results are always clamped into
// [0, nx)×[0, ny) before use (negative arguments clamp to 0 either way).
func (g *Grid) cellOf(p geom.Point) (int, int) {
	cx := int((p.X - g.minX) * g.invCell)
	cy := int((p.Y - g.minY) * g.invCell)
	return cx, cy
}

// cellIndex returns the flat bucket index of p, clamped into range (only
// indexed points call this, and those are inside the bounding box up to
// floating-point rounding).
func (g *Grid) cellIndex(p geom.Point) int {
	cx, cy := g.cellOf(p)
	cx = clamp(cx, 0, g.nx-1)
	cy = clamp(cy, 0, g.ny-1)
	return cy*g.nx + cx
}

// bucket returns the point indices stored in cell (cx, cy), which must be
// in range.
func (g *Grid) bucket(cx, cy int) []int32 {
	c := cy*g.nx + cx
	return g.idx[g.start[c]:g.start[c+1]]
}

// Within appends to dst the indices of all points within distance r of q
// (including any point coincident with q; callers filter self-hits by
// index). Results are in no particular order.
func (g *Grid) Within(q geom.Point, r float64, dst []int) []int {
	if r < 0 || len(g.pts) == 0 {
		return dst
	}
	cx0, cy0 := g.cellOf(geom.Point{X: q.X - r, Y: q.Y - r})
	cx1, cy1 := g.cellOf(geom.Point{X: q.X + r, Y: q.Y + r})
	cx0 = clamp(cx0, 0, g.nx-1)
	cy0 = clamp(cy0, 0, g.ny-1)
	cx1 = clamp(cx1, 0, g.nx-1)
	cy1 = clamp(cy1, 0, g.ny-1)
	r2 := r*r + geom.Eps
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * g.nx
		lo := g.start[row+cx0]
		hi := g.start[row+cx1+1]
		for _, i := range g.idx[lo:hi] {
			if g.pts[i].Dist2(q) <= r2 {
				dst = append(dst, int(i))
			}
		}
	}
	return dst
}

// Nearest returns the index of the point nearest to q, excluding the point
// with index `exclude` (pass -1 to exclude nothing). Returns -1 when no
// eligible point exists. It scans concentric cell rings outward and stops
// once no closer point can exist.
func (g *Grid) Nearest(q geom.Point, exclude int) int {
	return g.NearestWhere(q, func(i int) bool { return i != exclude })
}

// NearestWhere returns the index of the point nearest to q among those
// accepted by the predicate, or -1 when no accepted point exists. Ties
// break toward the smaller index, so results are deterministic. It scans
// concentric cell rings outward and stops once no closer point can exist
// — the foreign-component queries of the incremental EMST splice
// (mst.SpliceEMSTIndexed) run on this.
func (g *Grid) NearestWhere(q geom.Point, accept func(i int) bool) int {
	return g.nearestWhere(q, math.Inf(1), accept)
}

// NearestWhereWithin is NearestWhere with a search cap: points farther
// than r are never reported and the ring scan gives up beyond it, so a
// caller holding a best-so-far bound pays only for the disk that could
// beat it. Returns -1 when no accepted point lies within r.
func (g *Grid) NearestWhereWithin(q geom.Point, r float64, accept func(i int) bool) int {
	if r < 0 {
		return -1
	}
	return g.nearestWhere(q, r*r+geom.Eps, accept)
}

func (g *Grid) nearestWhere(q geom.Point, capD2 float64, accept func(i int) bool) int {
	best := -1
	bestD2 := capD2
	if len(g.pts) == 0 {
		return -1
	}
	cx, cy := g.cellOf(q)
	cx = clamp(cx, 0, g.nx-1)
	cy = clamp(cy, 0, g.ny-1)
	maxRing := g.nx + g.ny + 2
	for ring := 0; ring <= maxRing; ring++ {
		for dx := -ring; dx <= ring; dx++ {
			x := cx + dx
			if x < 0 || x >= g.nx {
				continue
			}
			for dy := -ring; dy <= ring; dy++ {
				if absInt(dx) != ring && absInt(dy) != ring {
					continue // interior already scanned
				}
				y := cy + dy
				if y < 0 || y >= g.ny {
					continue
				}
				for _, i := range g.bucket(x, y) {
					if !accept(int(i)) {
						continue
					}
					if d2 := g.pts[i].Dist2(q); d2 < bestD2 || (d2 == bestD2 && best >= 0 && int(i) < best) {
						bestD2 = d2
						best = int(i)
					}
				}
			}
		}
		if !math.IsInf(bestD2, 1) {
			// Rings beyond this bound provably hold nothing better than
			// the best found (or the caller's cap).
			safeRing := int(math.Sqrt(bestD2)/g.cell) + 1
			if ring >= safeRing {
				return best
			}
		}
	}
	return best
}

// KNearest returns the indices of up to k nearest points to q (excluding
// index `exclude`), ordered by increasing distance. It collects candidates
// within doubling radii, so it is simple and correct rather than optimal.
func (g *Grid) KNearest(q geom.Point, k, exclude int) []int {
	if k <= 0 || len(g.pts) == 0 {
		return nil
	}
	span := g.cell * float64(g.nx+g.ny+4)
	r := g.cell
	for {
		cand := g.Within(q, r, nil)
		kept := cand[:0]
		for _, i := range cand {
			if i != exclude {
				kept = append(kept, i)
			}
		}
		if len(kept) >= k || r > span {
			sort.Slice(kept, func(a, b int) bool {
				return g.pts[kept[a]].Dist2(q) < g.pts[kept[b]].Dist2(q)
			})
			if len(kept) > k {
				kept = kept[:k]
			}
			return append([]int(nil), kept...)
		}
		r *= 2
	}
}

// Pairs invokes fn for every unordered pair (i, j), i < j, of points within
// distance r of each other. It walks cells and compares each cell against
// its forward half-plane of neighbor cells; because buckets of one row are
// contiguous in the CSR layout, each neighbor row is visited as a single
// slice, so every unordered pair is considered exactly once with almost no
// per-cell overhead.
func (g *Grid) Pairs(r float64, fn func(i, j int)) {
	if r < 0 || len(g.pts) == 0 {
		return
	}
	r2 := r*r + geom.Eps
	reach := int(math.Ceil(r / g.cell))
	for cy := 0; cy < g.ny; cy++ {
		rowBase := cy * g.nx
		for cx := 0; cx < g.nx; cx++ {
			a := g.idx[g.start[rowBase+cx]:g.start[rowBase+cx+1]]
			if len(a) == 0 {
				continue
			}
			// Pairs inside the cell; bucket order is increasing, so ii < jj
			// implies a[ii] < a[jj].
			for ii := 0; ii < len(a); ii++ {
				pi := g.pts[a[ii]]
				for jj := ii + 1; jj < len(a); jj++ {
					if pi.Dist2(g.pts[a[jj]]) <= r2 {
						fn(int(a[ii]), int(a[jj]))
					}
				}
			}
			x0 := clamp(cx-reach, 0, g.nx-1)
			x1 := clamp(cx+reach, 0, g.nx-1)
			// Same row, cells strictly to the right (one contiguous slice).
			if cx < x1 {
				g.crossPairs(a, g.idx[g.start[rowBase+cx+1]:g.start[rowBase+x1+1]], r2, fn)
			}
			// Rows below, full dx range (one contiguous slice per row).
			for y := cy + 1; y <= cy+reach && y < g.ny; y++ {
				rb := y * g.nx
				g.crossPairs(a, g.idx[g.start[rb+x0]:g.start[rb+x1+1]], r2, fn)
			}
		}
	}
}

// crossPairs emits all pairs (one point from a, one from b) within the
// squared radius, normalized to increasing index order.
func (g *Grid) crossPairs(a, b []int32, r2 float64, fn func(i, j int)) {
	for _, i := range a {
		pi := g.pts[i]
		for _, j := range b {
			if pi.Dist2(g.pts[j]) <= r2 {
				u, v := int(i), int(j)
				if u > v {
					u, v = v, u
				}
				fn(u, v)
			}
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
