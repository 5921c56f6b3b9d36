package mst

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/spatial"
)

// SpliceEMSTIndexed incrementally updates a Euclidean MST under a batch
// of point mutations, in time proportional to the disturbed region
// instead of the whole instance — the geometric engine behind
// live-instance repair (internal/instance).
//
// oldTree is the EMST of the previous point set; pts is the new point
// set; grid is a caller-provided spatial index of pts (nil builds one:
// the live-instance repair path shares one grid between the splice and
// the verifier's digraph build, skipping a duplicate indexing pass);
// old2new maps each old index to its new index (-1 when the point
// was removed); fresh lists the new indices whose position is not
// inherited from the old set (added points, and moved points under their
// new coordinates). The result is a max-degree-5 EMST of pts, exactly
// what Euclidean(pts) computes up to ties between equal-length edges
// (tied instances may yield a different — equally minimal — tree, with
// the same edge-length multiset and hence the same bottleneck LMax).
//
// The update is exact, not heuristic, by two classical MST facts:
//
//  1. Deleting points keeps every surviving old edge cut-minimal, so the
//     survivor forest is a subforest of the new EMST; merging its
//     components smallest-first by each one's minimum outgoing edge
//     (radius-capped foreign-nearest grid queries) reconnects it into
//     the exact EMST of the surviving points.
//  2. A point x inserted into an EMST of vertex set V only ever links to
//     vertices within max(dist to x's nearest neighbor, current
//     bottleneck): any other x-incident edge of MST(V∪{x}) is the minimum
//     across a cut the old tree also crossed. Candidates from that grid
//     disk are pruned by the relative-neighborhood test (MST ⊆ RNG) and
//     applied in ascending order with cycle-property evictions (tree-path
//     maximum walks), which is the textbook exact insertion.
//
// touched lists the settled vertices whose tree adjacency changed (with
// possible duplicates; fresh vertices are implicitly changed and not
// listed). It is nil when the splice cannot cheaply prove the set —
// today only when the degree-repair pass rewired ties — in which case
// the caller diffs the trees itself.
//
// ok is false when the incremental update is not worthwhile or the
// instance is degenerate (tiny n, a shattered survivor forest, an
// unspanned reconnection); callers then rebuild with Euclidean. A nil
// tree with ok=true never occurs.
func SpliceEMSTIndexed(oldTree *Tree, pts []geom.Point, grid *spatial.Grid, old2new []int, fresh []int) (tree *Tree, touched []int, ok bool) {
	n := len(pts)
	if oldTree == nil || n < 16 || len(old2new) != oldTree.N() {
		return nil, nil, false
	}
	isFresh := make([]bool, n)
	freshCount := 0
	for _, v := range fresh {
		if v < 0 || v >= n {
			return nil, nil, false
		}
		if !isFresh[v] {
			isFresh[v] = true
			freshCount++
		}
	}
	if freshCount == n || freshCount > n/4 {
		return nil, nil, false
	}

	// Survivor forest: old edges whose endpoints survive at unchanged
	// positions remain cut-minimal after the deletions, so they are part
	// of the new EMST restricted to the settled (non-fresh) vertices.
	if grid == nil || grid.Len() != n {
		grid = spatial.NewGrid(pts, 0)
	}
	sp := splicer{
		pts:  pts,
		adj:  make([][]int, n),
		grid: grid,
	}
	dsu := graph.NewDSU(n)
	settled := n - freshCount
	// Two-pass counted build of the survivor adjacency: one shared
	// backing array, no per-link append churn on the ~n surviving edges.
	oldEdges := oldTree.Edges()
	deg := make([]int32, n)
	keep := make([][2]int32, 0, len(oldEdges))
	for _, e := range oldEdges {
		nu, nv := old2new[e[0]], old2new[e[1]]
		if nu >= 0 && nv >= 0 && !isFresh[nu] && !isFresh[nv] {
			keep = append(keep, [2]int32{int32(nu), int32(nv)})
			deg[nu]++
			deg[nv]++
			continue
		}
		// The edge vanished: any surviving settled endpoint re-aims.
		if nu >= 0 && !isFresh[nu] {
			touched = append(touched, nu)
		}
		if nv >= 0 && !isFresh[nv] {
			touched = append(touched, nv)
		}
	}
	backing := make([]int, 0, 2*len(keep)+8*len(fresh)+16)
	off := 0
	for v := 0; v < n; v++ {
		sp.adj[v] = backing[off : off : off+int(deg[v])]
		off += int(deg[v])
	}
	for _, e := range keep {
		u, v := int(e[0]), int(e[1])
		sp.adj[u] = append(sp.adj[u], v)
		sp.adj[v] = append(sp.adj[v], u)
		dsu.Union(u, v)
		if d := pts[u].Dist(pts[v]); d > sp.maxLen {
			sp.maxLen = d
		}
	}
	if !sp.reconnect(dsu, isFresh, settled) {
		return nil, nil, false
	}
	// Insert fresh vertices in ascending index order (deterministic).
	order := append([]int(nil), fresh...)
	sort.Ints(order)
	inTree := make([]bool, n)
	for v := 0; v < n; v++ {
		inTree[v] = !isFresh[v]
	}
	for _, x := range order {
		if inTree[x] {
			continue // duplicate entry in fresh
		}
		if !sp.insert(x, inTree) {
			return nil, nil, false
		}
		inTree[x] = true
	}
	edges := make([][2]int, 0, n-1)
	for v := 0; v < n; v++ {
		for _, u := range sp.adj[v] {
			if u > v {
				edges = append(edges, [2]int{v, u})
			}
		}
	}
	if len(edges) != n-1 {
		return nil, nil, false
	}
	// Every structural change was logged: dropped survivor edges above,
	// reconnection links, and insertion links/evictions (sp.touched).
	// Degree repair only rewires exact ties; when it does, the cheap log
	// no longer covers the changes and the caller must diff.
	touched = append(touched, sp.touched...)
	// The splicer's adjacency is already the tree's; adopt it instead of
	// rebuilding it from the edge list.
	spliced := &Tree{Pts: pts, Adj: sp.adj, edges: edges}
	repaired := RepairDegree(spliced, 5)
	if repaired != spliced {
		touched = nil
	}
	return repaired, touched, true
}

// splicer is the mutable working state of one SpliceEMSTIndexed call.
type splicer struct {
	pts  []geom.Point
	adj  [][]int // current tree adjacency, adopted by the final Tree
	grid *spatial.Grid
	// parent/depth/plen are the rooted view used for tree-path-maximum
	// walks during insertion; rebuilt lazily after structural changes.
	parent []int32
	depth  []int32
	plen   []float64 // plen[v] = length of edge (v, parent[v])
	queue  []int32   // reusable BFS buffer for root
	maxLen float64   // current bottleneck edge length
	// touched logs endpoints of every structural change after the
	// survivor-forest build (reconnect links, insertion links and
	// evictions), for SpliceEMSTIndexed's changed-vertex report.
	touched []int
}

func (s *splicer) link(u, v int) {
	s.adj[u] = append(s.adj[u], v)
	s.adj[v] = append(s.adj[v], u)
	s.touched = append(s.touched, u, v)
	if d := s.pts[u].Dist(s.pts[v]); d > s.maxLen {
		s.maxLen = d
	}
}

func (s *splicer) cut(u, v int) {
	s.adj[u] = drop(s.adj[u], v)
	s.adj[v] = drop(s.adj[v], u)
	s.touched = append(s.touched, u, v)
}

func drop(a []int, x int) []int {
	for i, v := range a {
		if v == x {
			a[i] = a[len(a)-1]
			return a[:len(a)-1]
		}
	}
	return a
}

// recomputeMax rescans the bottleneck after an eviction removed an edge
// that may have been the current maximum.
func (s *splicer) recomputeMax() {
	s.maxLen = 0
	for v := range s.adj {
		for _, u := range s.adj[v] {
			if u > v {
				if d := s.pts[v].Dist(s.pts[u]); d > s.maxLen {
					s.maxLen = d
				}
			}
		}
	}
}

// reconnect merges the survivor forest's components back into one tree,
// smallest component first: the minimum outgoing edge of the currently
// smallest component C is the minimum crossing edge of the cut (C, rest)
// — cut-minimal, hence an edge of the exact EMST of the settled vertices.
// One unbounded grid query seeds the best crossing distance, after which
// every other vertex of C pays only a radius-capped query for the disk
// that could still beat it — interior vertices answer in a handful of
// bucket probes instead of ring-expanding to the component boundary.
// Scanning the smaller side per merge bounds total work by the classic
// smaller-half argument; a work cap bails to a full rebuild when the
// batch shattered the forest beyond locality.
func (s *splicer) reconnect(dsu *graph.DSU, isFresh []bool, settled int) bool {
	if settled <= 1 {
		return true
	}
	n := len(s.pts)
	// Component labels over settled vertices (fresh = -1): a flat array
	// beats DSU finds inside the hot grid-query predicate, and merges
	// relabel the smaller member list.
	label := make([]int32, n)
	rootID := make(map[int]int32)
	var members [][]int32
	for v := 0; v < n; v++ {
		if isFresh[v] {
			label[v] = -1
			continue
		}
		root := dsu.Find(v)
		id, ok := rootID[root]
		if !ok {
			id = int32(len(members))
			rootID[root] = id
			members = append(members, nil)
		}
		label[v] = id
		members[id] = append(members[id], int32(v))
	}
	live := len(members)
	scanned := 0
	for live > 1 {
		// Deterministic smallest live component (ties toward lower id).
		small := -1
		for id, m := range members {
			if m != nil && (small < 0 || len(m) < len(members[small])) {
				small = id
			}
		}
		c := members[small]
		if scanned += len(c); scanned > n {
			return false // shattered beyond locality; rebuild from scratch
		}
		sl := int32(small)
		foreign := func(i int) bool { l := label[i]; return l >= 0 && l != sl }
		// Seed with one unbounded query, then cap every other vertex's
		// search by the best crossing distance so far.
		bestU := int(c[0])
		bestW := s.grid.NearestWhere(s.pts[bestU], foreign)
		if bestW < 0 {
			return false
		}
		bestD := s.pts[bestU].Dist(s.pts[bestW])
		for _, vi := range c[1:] {
			v := int(vi)
			w := s.grid.NearestWhereWithin(s.pts[v], bestD, foreign)
			if w < 0 {
				continue
			}
			if d := s.pts[v].Dist(s.pts[w]); d < bestD ||
				(d == bestD && (v < bestU || (v == bestU && w < bestW))) {
				bestU, bestW, bestD = v, w, d
			}
		}
		other := int(label[bestW])
		dsu.Union(bestU, bestW)
		s.link(bestU, bestW)
		// Relabel the smaller side of the merge.
		a, b := small, other
		if len(members[a]) > len(members[b]) {
			a, b = b, a
		}
		for _, vi := range members[a] {
			label[vi] = int32(b)
		}
		members[b] = append(members[b], members[a]...)
		members[a] = nil
		live--
	}
	return true
}

// insertCandidateCap bounds the pruned candidate list of one insertion;
// the relative-neighborhood filter keeps it near the RNG degree (≤ ~6),
// so hitting the cap signals a degenerate instance better served by a
// full rebuild.
const insertCandidateCap = 48

// insert adds vertex x to the current tree exactly: collect candidate
// links inside the provably sufficient grid disk, prune them with the
// relative-neighborhood test, then apply them in ascending length order —
// the first connects x, each later one evicts the tree-path maximum when
// strictly shorter (cycle property).
func (s *splicer) insert(x int, inTree []bool) bool {
	nn := s.grid.NearestWhere(s.pts[x], func(i int) bool { return inTree[i] && i != x })
	if nn < 0 {
		return false
	}
	r := s.pts[x].Dist(s.pts[nn])
	if s.maxLen > r {
		r = s.maxLen
	}
	cand := s.grid.Within(s.pts[x], r+geom.Eps, nil)
	kept := cand[:0]
	for _, c := range cand {
		if inTree[c] && c != x {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(a, b int) bool {
		da, db := s.pts[kept[a]].Dist2(s.pts[x]), s.pts[kept[b]].Dist2(s.pts[x])
		if da != db {
			return da < db
		}
		return kept[a] < kept[b]
	})
	// Relative-neighborhood pruning: u is dropped when an already kept,
	// strictly closer w lies in the lens (closer to both x and u than u
	// is to x) — then (x, u) is not an RNG edge, and MST ⊆ RNG. The
	// filter only ever uses proven witnesses, so no true edge is lost.
	pruned := kept[:0]
	for _, u := range kept {
		du := s.pts[x].Dist(s.pts[u])
		dead := false
		for _, w := range pruned {
			if s.pts[x].Dist(s.pts[w]) < du-geom.Eps && s.pts[u].Dist(s.pts[w]) < du-geom.Eps {
				dead = true
				break
			}
		}
		if !dead {
			pruned = append(pruned, u)
			if len(pruned) > insertCandidateCap {
				return false
			}
		}
	}
	rooted := false
	linked := false
	for idx, u := range pruned {
		if !linked {
			s.link(x, u)
			linked = true
			continue
		}
		if !rooted {
			// One truncated BFS from x covers every remaining candidate's
			// tree path; rebuilt only after a swap changes the tree.
			s.root(x, pruned[idx:])
			rooted = true
		}
		a, b, elen := s.pathMax(x, u)
		if a < 0 {
			return false
		}
		if d := s.pts[x].Dist(s.pts[u]); d < elen-geom.Eps {
			s.cut(a, b)
			s.link(x, u)
			if elen >= s.maxLen {
				s.recomputeMax()
			}
			rooted = false
		}
	}
	return linked
}

// pathMax returns the endpoints and length of the longest edge on the
// tree path between the current BFS root u and a target v the last root
// call covered.
func (s *splicer) pathMax(u, v int) (int, int, float64) {
	if s.depth[u] < 0 || s.depth[v] < 0 {
		return -1, -1, 0 // disconnected: cannot happen on a spanning tree
	}
	bu, bv, blen := -1, -1, 0.0
	lift := func(w int) int {
		p := int(s.parent[w])
		if s.plen[w] > blen {
			bu, bv, blen = w, p, s.plen[w]
		}
		return p
	}
	for s.depth[u] > s.depth[v] {
		u = lift(u)
	}
	for s.depth[v] > s.depth[u] {
		v = lift(v)
	}
	for u != v {
		u = lift(u)
		v = lift(v)
	}
	return bu, bv, blen
}

// root (re)builds the parent/depth arrays by BFS from src over the
// current adjacency, stopping as soon as every target has been reached —
// candidates sit near src in the tree almost always, so the scan touches
// a neighborhood, not the whole instance.
func (s *splicer) root(src int, targets []int) {
	n := len(s.pts)
	if s.parent == nil || len(s.parent) != n {
		s.parent = make([]int32, n)
		s.depth = make([]int32, n)
		s.plen = make([]float64, n)
	}
	for i := range s.depth {
		s.depth[i] = -1
	}
	s.parent[src] = -1
	s.depth[src] = 0
	s.plen[src] = 0
	remaining := 0
	for _, t := range targets {
		if t != src {
			remaining++
		}
	}
	if cap(s.queue) < n {
		s.queue = make([]int32, 0, n)
	}
	queue := append(s.queue[:0], int32(src))
	for head := 0; head < len(queue) && remaining > 0; head++ {
		v := int(queue[head])
		for _, u := range s.adj[v] {
			if s.depth[u] < 0 {
				s.parent[u] = int32(v)
				s.depth[u] = s.depth[v] + 1
				s.plen[u] = s.pts[u].Dist(s.pts[v])
				queue = append(queue, int32(u))
				for _, t := range targets {
					if u == t {
						remaining--
						break
					}
				}
			}
		}
	}
}
