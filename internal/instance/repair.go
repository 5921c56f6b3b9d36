package instance

import (
	"context"
	"strings"

	"repro/internal/antenna"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/route"
	"repro/internal/solution"
	"repro/internal/spatial"
	"repro/internal/verify"
)

// repairKit is the maintained substrate that makes a batch repairable
// without a from-scratch solve: the exactly maintained EMST, the current
// assignment (whose clean sector slices later revisions alias), the
// Hamiltonian cycle for tour-class instances, and the incremental
// verifier that carries the induced digraph and the connectivity verdict
// across revisions. The kit is owned by the instance's applyMu — batches
// serialize, so no other goroutine ever observes it mid-update. It is
// nil whenever the instance is not repairable (unsupported construction,
// planner race, a failed repair that invalidated it); the next full
// solve rebuilds it from the published artifact.
type repairKit struct {
	class   string // core.RepairClassEMST | ...Tour | ...Bats
	guar    core.Guarantee
	budgets verify.Budgets
	tree    *mst.Tree
	asg     *antenna.Assignment
	tour    []int // maintained Hamiltonian cycle (tour class only)
	iv      *verify.Incremental
	// sinceAudit counts repaired revisions since the last full-audit
	// escape hatch (Config.VerifyAuditEvery) re-derived the verdict from
	// scratch.
	sinceAudit int
}

// repairState is a successfully repaired revision before publication.
type repairState struct {
	sol       *solution.Solution
	class     string
	dirtyFrac float64
	// changed counts sensors whose wire sectors differ from the previous
	// revision — computable over just the re-aimed set, since clean
	// sensors alias their previous sectors by construction.
	changed int
}

// buildRepairKit (re)builds the maintained repair substrate after a full
// solve, when the construction is repairable at the budget; nil
// otherwise, so every later batch full-solves. The tree is rebuilt with
// the same deterministic mst.Euclidean the construction ran; tour-class
// kits re-derive the cycle from that tree with the same deterministic
// core.BestTour the engine's tour construction used, so the maintained
// cycle matches the artifact's rays exactly (a documented duplicate cost,
// paid only on full solves of tour instances). Bats-class kits exist only in the
// wedge regime — when one φ-wedge per vertex covers its whole EMST
// neighborhood; the cube-path regime is global and never repairs.
func (m *Manager) buildRepairKit(b Budget, sol *solution.Solution, pts []geom.Point) *repairKit {
	class := m.repairClass(b, sol)
	if class == "" || len(pts) < minRepairN {
		return nil
	}
	asg, err := sol.Assignment(pts)
	if err != nil {
		return nil
	}
	orienter, ok := core.LookupOrienter(resolvedAlgo(b, sol))
	if !ok {
		return nil
	}
	guar, ok := orienter.Guarantee(b.K, b.Phi)
	if !ok {
		return nil
	}
	kit := &repairKit{
		class:   class,
		guar:    guar,
		budgets: plan.VerifyBudgets(guar),
		tree:    mst.Euclidean(pts),
		asg:     asg,
	}
	switch class {
	case core.RepairClassTour:
		// BestTour errs only on a done context; this one never is.
		kit.tour, _, _ = core.BestTour(context.Background(), kit.tree)
		if len(kit.tour) != len(pts) {
			return nil
		}
	case core.RepairClassBats:
		if !batsWedgeRegime(kit.tree, pts, b.Phi) {
			return nil
		}
	}
	kit.iv = verify.NewIncremental(asg, kit.budgets)
	return kit
}

// adoptRepairKit installs buildRepairKit's output on an unpublished
// instance (Create's and Recover's path).
func (m *Manager) adoptRepairKit(in *inst, sol *solution.Solution) {
	in.kit = m.buildRepairKit(in.budget, sol, in.pts)
}

// repairClass decides which incremental-repair class may serve this
// instance: the resolved construction must expose a repair class at the
// budget (core.RepairClass), the artifact must be verified, and — for
// planner-selected instances — the selection must be the deterministic
// a-priori decision (a raced winner is instance-measured, so a mutated
// instance could legitimately select differently; those instances
// full-solve every batch). Empty means not repairable.
func (m *Manager) repairClass(b Budget, sol *solution.Solution) string {
	if !sol.Verified || m.cfg.RepairThreshold <= 0 {
		return ""
	}
	algo := b.Algo
	if algo == "" {
		if b.Objective.Deadline > 0 || strings.Contains(sol.Objective, "race=") {
			return ""
		}
		d, err := (&plan.Planner{}).Plan(b.Objective, b.K, b.Phi)
		if err != nil || d.Winner != sol.Algo {
			return ""
		}
		algo = d.Winner
	}
	return core.RepairClass(algo, b.K, b.Phi)
}

// minRepairN is the instance size below which a full solve is cheaper
// than maintaining repair state.
const minRepairN = 16

// maxRepairArc caps the reversal-arc length of a 2-opt move during a
// k=1 tour repair: a reversal flips the successor of every arc vertex,
// and with one ray per sensor each flipped successor is a re-aimed
// sector, so unbounded arcs would un-localize the repair. k ≥ 2 rows
// aim at both cycle neighbors — a reversal changes no clean sensor's
// ray set — so their arcs stay uncapped.
const maxRepairArc = 256

// tryRepair attempts the incremental path for one batch; nil falls the
// caller back to a full solve. The class-independent spine, each step of
// which can bail:
//
//  1. Splice the maintained EMST exactly under the batch
//     (mst.SpliceEMSTIndexed) — every class needs the new bottleneck,
//     and the EMST classes need the dirty neighborhoods.
//  2. Compute the re-aim set for the class: EMST-neighborhood diffs for
//     the cover and bats rules, cycle splice + dirty-window 2-opt
//     (route.SpliceTour, route.LocalTwoOpt, under the request context)
//     for the tour rows. Bail when the dirty fraction crosses the
//     configured threshold.
//  3. Re-aim only the dirty sensors through the construction's own
//     per-sensor rule; every clean sensor aliases its previous sectors.
//  4. Advance the maintained incremental verifier (verify.Incremental)
//     by the sector diff and audit the revision against the same
//     a-priori guarantee the engine would enforce, with the maintained
//     tree's bottleneck as l_max. A failed audit invalidates the kit and
//     bails — the full solve then produces, verifies, and re-kits the
//     revision instead, so an unrepairable geometry costs latency, never
//     correctness. Every VerifyAuditEvery-th repaired revision the
//     verdict is additionally re-derived from scratch (verify.Check with
//     an independently recomputed l_max); a divergence is counted,
//     invalidates the kit, and falls back.
func (m *Manager) tryRepair(ctx context.Context, in *inst, newPts []geom.Point, old2new []int, fresh []int) *repairState {
	kit := in.kit
	if kit == nil || len(newPts) < minRepairN {
		return nil
	}
	prev := in.currentSol()
	grid := spatial.NewGrid(newPts, 0)
	_, endSplice := obs.StartSpan(ctx, "splice")
	newTree, touched, ok := mst.SpliceEMSTIndexed(kit.tree, newPts, grid, old2new, fresh)
	endSplice()
	if !ok {
		m.metrics.RepairFallbacks.Add(1)
		return nil
	}

	var asg *antenna.Assignment
	var reaim []int
	var newTour []int
	switch kit.class {
	case core.RepairClassEMST, core.RepairClassBats:
		if touched != nil {
			reaim = dirtyFromTouched(len(newPts), touched, fresh)
		} else {
			// The splice could not cheaply certify its change set (tie
			// rewiring in degree repair): diff the trees.
			reaim = dirtyVertices(kit.tree, newTree, old2new, fresh)
		}
		if m.overThreshold(len(reaim), len(newPts)) {
			return nil
		}
		asg = aliasSurvivors(newPts, grid, kit.asg, old2new)
		if kit.class == core.RepairClassEMST {
			reaimCover(asg, newTree, newPts, reaim, in.budget.K)
		} else if !reaimBats(asg, newTree, newPts, reaim, in.budget.Phi) {
			m.metrics.RepairFallbacks.Add(1)
			return nil
		}
	case core.RepairClassTour:
		var dirty []int
		newTour, dirty, ok = route.SpliceTour(kit.tour, newPts, grid, old2new, fresh)
		if !ok {
			m.metrics.RepairFallbacks.Add(1)
			return nil
		}
		if m.overThreshold(len(dirty), len(newPts)) {
			return nil
		}
		k1 := in.budget.K == 1
		maxArc := len(newPts)
		if k1 {
			maxArc = maxRepairArc
		}
		bound := kit.guar.Stretch * newTree.LMax()
		extra, settled, err := route.LocalTwoOpt(ctx, newPts, grid, newTour, dirty, bound, maxArc, 8*len(dirty)+64, k1)
		if err != nil || !settled {
			m.metrics.RepairFallbacks.Add(1)
			return nil
		}
		reaim = mergeDirty(len(newPts), dirty, extra)
		if m.overThreshold(len(reaim), len(newPts)) {
			return nil
		}
		asg = aliasSurvivors(newPts, grid, kit.asg, old2new)
		reaimTour(asg, newTour, newPts, reaim, in.budget.K)
	default:
		return nil
	}
	frac := float64(len(reaim)) / float64(len(newPts))

	// Advance the maintained verifier. From here on the kit has consumed
	// the revision: any bail below must invalidate it, or the next batch
	// would repair against state one revision ahead of the instance.
	m.metrics.VerifyIncremental.Add(1)
	_, endVerify := obs.StartSpan(ctx, "verify_inc")
	rep := kit.iv.Apply(asg, grid, old2new, reaim, newTree.LMax())
	if !rep.OK() {
		endVerify()
		in.kit = nil
		m.metrics.RepairVerifyFailures.Add(1)
		m.metrics.VerifyIncrementalRejects.Add(1)
		return nil
	}
	kit.sinceAudit++
	if every := m.cfg.VerifyAuditEvery; every > 0 && kit.sinceAudit >= every {
		m.metrics.VerifyAudits.Add(1)
		full := verify.Check(asg, kit.budgets) // KnownLMax unset: recompute l_max independently
		if !full.OK() || full.Edges != rep.Edges || full.Strong != rep.Strong ||
			full.Symmetric != rep.Symmetric || full.SCCCount != rep.SCCCount {
			endVerify()
			in.kit = nil
			m.metrics.VerifyAuditDivergence.Add(1)
			return nil
		}
		kit.sinceAudit = 0
	}
	endVerify()

	kit.tree, kit.asg = newTree, asg
	if newTour != nil {
		kit.tour = newTour
	}

	wire, changed := spliceWire(prev, asg, old2new, reaim)
	sol := &solution.Solution{
		Version:      solution.Version,
		PointsDigest: solution.Digest(newPts),
		N:            len(newPts),
		K:            in.budget.K,
		Phi:          in.budget.Phi,
		Objective:    prev.Objective,
		Planned:      prev.Planned,
		Algo:         prev.Algo,
		Construction: prev.Construction,
		Guarantee:    prev.Guarantee,
		Sectors:      wire,
		LMax:         rep.LMax,
		Bound:        prev.Bound,
		ProvedBound:  prev.ProvedBound,
		RadiusUsed:   rep.MaxRadius,
		RadiusRatio:  rep.RadiusRatio,
		SpreadUsed:   rep.MaxSpread,
		Edges:        rep.Edges,
		Verified:     true,
	}
	return &repairState{sol: sol, class: kit.class, dirtyFrac: frac, changed: changed}
}

// overThreshold reports (and counts) a dirty set too large to repair.
func (m *Manager) overThreshold(dirty, n int) bool {
	if float64(dirty)/float64(n) > m.cfg.RepairThreshold {
		m.metrics.RepairFallbacks.Add(1)
		return true
	}
	return false
}

// aliasSurvivors builds the next revision's assignment with every
// surviving sensor aliasing its previous (immutable) sector slice under
// its new index; re-aim helpers overwrite the dirty slots.
func aliasSurvivors(pts []geom.Point, grid *spatial.Grid, prev *antenna.Assignment, old2new []int) *antenna.Assignment {
	asg := antenna.New(pts).WithSpatialIndex(grid)
	for o, n := range old2new {
		if n >= 0 {
			asg.Sectors[n] = prev.Sectors[o]
		}
	}
	return asg
}

// reaimCover re-runs the full-cover rule for the dirty sensors: sectors
// are a pure function of the sensor's own EMST neighborhood.
func reaimCover(asg *antenna.Assignment, tree *mst.Tree, pts []geom.Point, reaim []int, k int) {
	adj := tree.Adj
	for _, u := range reaim {
		targets := make([]geom.Point, len(adj[u]))
		for i, v := range adj[u] {
			targets[i] = pts[v]
		}
		asg.Sectors[u] = core.CoverSectors(pts[u], targets, k)
	}
}

// reaimBats re-runs the bounded-angle wedge rule for the dirty sensors:
// one minimal sector covering the sensor's EMST neighbors, radius the
// farthest of them. False when a dirty neighborhood no longer fits a
// φ-wedge — the instance has left the wedge regime and must full-solve
// (clean neighborhoods are unchanged, so they cannot have left it).
func reaimBats(asg *antenna.Assignment, tree *mst.Tree, pts []geom.Point, reaim []int, phi float64) bool {
	sc := geom.GetScratch()
	defer sc.Release()
	targets := make([]geom.Point, 0, 8)
	for _, u := range reaim {
		targets = targets[:0]
		var far float64
		for _, v := range tree.Adj[u] {
			targets = append(targets, pts[v])
			if d := pts[u].Dist(pts[v]); d > far {
				far = d
			}
		}
		s, ok := sc.CoverAllSector(pts[u], targets, 0)
		if !ok || s.Spread > phi+geom.AngleEps {
			return false
		}
		s.Radius = far
		asg.Sectors[u] = nil
		asg.Add(u, s)
	}
	return true
}

// reaimTour re-aims the dirty sensors' rays along the maintained cycle:
// a zero-spread ray to the successor, plus (k ≥ 2) one to the
// predecessor, radii the hop lengths — the construction's own rule
// (core.OrientTour).
func reaimTour(asg *antenna.Assignment, tour []int, pts []geom.Point, reaim []int, k int) {
	n := len(tour)
	pos := make([]int, n)
	for i, v := range tour {
		pos[v] = i
	}
	for _, u := range reaim {
		i := pos[u]
		succ := tour[(i+1)%n]
		asg.Sectors[u] = nil
		asg.AddRayTo(u, succ, pts[u].Dist(pts[succ]))
		if k >= 2 {
			pred := tour[(i-1+n)%n]
			asg.AddRayTo(u, pred, pts[u].Dist(pts[pred]))
		}
	}
}

// batsWedgeRegime reports whether one wedge per vertex covers every EMST
// neighborhood within φ — the regime in which the bats construction is
// per-sensor local and therefore repairable.
func batsWedgeRegime(tree *mst.Tree, pts []geom.Point, phi float64) bool {
	sc := geom.GetScratch()
	defer sc.Release()
	dirs := make([]float64, 0, 8)
	for u := 0; u < tree.N(); u++ {
		dirs = dirs[:0]
		for _, v := range tree.Adj[u] {
			dirs = append(dirs, geom.Dir(pts[u], pts[v]))
		}
		if sc.MinCoverSpread(dirs, 1) > phi+geom.AngleEps {
			return false
		}
	}
	return true
}

// spliceWire encodes the repaired revision's wire sectors — clean
// sensors alias the previous artifact's (immutable) wire slices; only
// the re-aimed sensors re-encode — and counts the changed sensors.
func spliceWire(prev *solution.Solution, asg *antenna.Assignment, old2new []int, reaim []int) ([][]solution.Sector, int) {
	wire := make([][]solution.Sector, asg.N())
	new2old := make([]int, asg.N())
	for i := range new2old {
		new2old[i] = -1
	}
	for o, n := range old2new {
		if n >= 0 {
			wire[n] = prev.Sectors[o]
			new2old[n] = o
		}
	}
	changed := 0
	for _, u := range reaim {
		secs := asg.Sectors[u]
		ws := make([]solution.Sector, len(secs))
		for i, sec := range secs {
			ws[i] = solution.Sector{Start: sec.Start, Spread: sec.Spread, Radius: sec.Radius}
		}
		if len(ws) == 0 {
			ws = nil
		}
		if o := new2old[u]; o < 0 || !wireSectorsEqual(prev.Sectors[o], ws) {
			changed++
		}
		wire[u] = ws
	}
	return wire, changed
}

// mergeDirty unions two dirty sets into one sorted list.
func mergeDirty(n int, a, b []int) []int {
	mark := make([]bool, n)
	for _, v := range a {
		mark[v] = true
	}
	for _, v := range b {
		mark[v] = true
	}
	out := make([]int, 0, len(a)+len(b))
	for v := 0; v < n; v++ {
		if mark[v] {
			out = append(out, v)
		}
	}
	return out
}

// resolvedAlgo names the registered orienter the instance runs under —
// the explicit budget algo, or the planner winner recorded in the
// artifact.
func resolvedAlgo(b Budget, sol *solution.Solution) string {
	if b.Algo != "" {
		return b.Algo
	}
	return sol.Algo
}

// dirtyFromTouched dedups the splice's change log into the sorted dirty
// set: fresh sensors plus every settled sensor whose adjacency changed.
func dirtyFromTouched(n int, touched, fresh []int) []int {
	mark := make([]bool, n)
	for _, v := range fresh {
		mark[v] = true
	}
	for _, v := range touched {
		mark[v] = true
	}
	var out []int
	for v := 0; v < n; v++ {
		if mark[v] {
			out = append(out, v)
		}
	}
	return out
}

// dirtyVertices returns the new-index sensors whose EMST neighborhood
// changed: every fresh sensor, plus both endpoints of every edge in the
// symmetric difference of the old tree (mapped through the batch's index
// mapping) and the spliced tree. Settled sensors keep their positions,
// so index equality is position equality and the edge diff is exact.
func dirtyVertices(oldTree, newTree *mst.Tree, old2new []int, fresh []int) []int {
	n := newTree.N()
	isFresh := make([]bool, n)
	mark := make([]bool, n)
	for _, v := range fresh {
		isFresh[v] = true
		mark[v] = true
	}
	oldEdges := make(map[uint64]bool, len(oldTree.Edges()))
	for _, e := range oldTree.Edges() {
		nu, nv := old2new[e[0]], old2new[e[1]]
		if nu >= 0 && nv >= 0 && !isFresh[nu] && !isFresh[nv] {
			oldEdges[packEdge(nu, nv)] = true
		} else {
			// An endpoint vanished or freshened: any surviving settled
			// endpoint lost this edge and must re-aim.
			if nu >= 0 {
				mark[nu] = true
			}
			if nv >= 0 {
				mark[nv] = true
			}
		}
	}
	for _, e := range newTree.Edges() {
		key := packEdge(e[0], e[1])
		if oldEdges[key] {
			delete(oldEdges, key) // unchanged edge
		} else {
			mark[e[0]] = true
			mark[e[1]] = true
		}
	}
	for key := range oldEdges { // old edges that disappeared
		mark[int(key>>32)] = true
		mark[int(key&0xffffffff)] = true
	}
	var out []int
	for v := 0; v < n; v++ {
		if mark[v] {
			out = append(out, v)
		}
	}
	return out
}

func packEdge(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}
