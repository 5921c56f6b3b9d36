package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/pointset"
	"repro/internal/render"
)

// Figure regenerates the paper's figure with the given number (1–6) as an
// SVG written to w, returning a short description of what was drawn. The
// figures in the paper are proof illustrations; we regenerate them from
// live data: Figure 1 is the Lemma-1 necessity witness, Figure 2 the
// Facts 1–2 geometry, Figures 3–6 the constructions of Theorems 3, 5, 6
// on instances that exercise them.
func Figure(w io.Writer, num int, seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	style := render.DefaultStyle()
	switch num {
	case 1:
		// Example vertex with d = 5 (Lemma 1): the regular 5-gon star,
		// covered with k = 2 antennae at the optimal spread.
		pts := pointset.RegularPolygonStar(5, 1)
		asg, _ := core.OrientFullCover(mst.Euclidean(pts), 2, geom.TwoPi, false)
		style.Title = "Figure 1: degree-5 vertex covered by k=2 antennae (Lemma 1)"
		return "lemma-1 witness star", render.Assignment(w, asg, style)
	case 2:
		// Facts 1 and 2: an EMST with its angles; render the tree.
		pts := pointset.StarField(rng, 2)
		tree := mst.Euclidean(pts)
		style.Title = "Figure 2: EMST neighbor angles (Facts 1-2 hold at every vertex)"
		return "EMST for facts 1-2", render.Tree(w, tree, style)
	case 3:
		// Theorem 3 part 1 on a star field (degree-5 cases live here).
		pts := pointset.StarField(rng, 3)
		asg, _ := core.OrientTwoAntennae(mst.Euclidean(pts), math.Pi)
		style.Title = "Figure 3: Theorem 3.1 orientation (k=2, φ₂=π)"
		return "theorem 3.1 construction", render.Assignment(w, asg, style)
	case 4:
		pts := pointset.StarField(rng, 3)
		asg, _ := core.OrientTwoAntennae(mst.Euclidean(pts), 0.8*math.Pi)
		style.Title = "Figure 4: Theorem 3.2 orientation (k=2, φ₂=0.8π)"
		return "theorem 3.2 construction", render.Assignment(w, asg, style)
	case 5:
		pts := pointset.StarField(rng, 2)
		asg, _ := core.OrientThreeAntennae(mst.Euclidean(pts), 0)
		style.Title = "Figure 5: Theorem 5 chains (k=3, spread 0, r ≤ √3)"
		return "theorem 5 construction", render.Assignment(w, asg, style)
	case 6:
		pts := pointset.StarField(rng, 2)
		asg, _ := core.OrientFourAntennae(mst.Euclidean(pts), 0)
		style.Title = "Figure 6: Theorem 6 chains (k=4, spread 0, r ≤ √2)"
		return "theorem 6 construction", render.Assignment(w, asg, style)
	default:
		return "", fmt.Errorf("experiments: no figure %d (paper has 1-6)", num)
	}
}

// Lemma1Row is one row of E-F1: spread needed on the regular d-gon.
type Lemma1Row struct {
	D, K  int
	Need  float64 // measured minimal spread (optimal cover)
	Bound float64 // 2π(d−k)/d
	Tight bool
}

// RunLemma1 measures the tightness of Lemma 1 on regular polygons
// (experiment E-F1, the paper's necessity argument).
func RunLemma1() []Lemma1Row {
	var out []Lemma1Row
	for dd := 2; dd <= 5; dd++ {
		pts := pointset.RegularPolygonStar(dd, 1)
		for k := 1; k < dd; k++ {
			need := core.MinSpreadForFullCover(pts, k)
			bound := geom.TwoPi * float64(dd-k) / float64(dd)
			out = append(out, Lemma1Row{
				D: dd, K: k, Need: need, Bound: bound,
				Tight: math.Abs(need-bound) < 1e-9,
			})
		}
	}
	return out
}

// WriteLemma1 renders E-F1.
func WriteLemma1(w io.Writer, rows []Lemma1Row) error {
	if _, err := fmt.Fprintln(w, "E-F1 — Lemma 1 necessity on regular d-gons (spread needed vs 2π(d−k)/d)"); err != nil {
		return err
	}
	headers := []string{"d", "k", "needed", "bound", "tight"}
	var tab [][]string
	for _, r := range rows {
		tab = append(tab, []string{d(r.D), d(r.K), f(r.Need), f(r.Bound), fmt.Sprintf("%v", r.Tight)})
	}
	return WriteTable(w, headers, tab)
}

// FactsResult summarizes E-F2: Facts 1–2 across random EMSTs.
type FactsResult struct {
	Instances       int
	Fact1Violations int
	Fact2Violations int
	Degree5Vertices int
}

// RunFacts validates Facts 1 and 2 across the configured workloads.
func RunFacts(cfg Config) FactsResult {
	cfg = cfg.orDefault()
	var res FactsResult
	for s := 0; s < cfg.Seeds*len(cfg.Workloads); s++ {
		rng := rand.New(rand.NewSource(cfg.BaseSeed + int64(s)))
		pts := MakeWorkload(cfg.Workloads[s%len(cfg.Workloads)], rng, cfg.Sizes[s%len(cfg.Sizes)])
		tree := mst.Euclidean(pts)
		res.Instances++
		res.Fact1Violations += len(mst.CheckFact1(tree, 1e-7))
		res.Fact2Violations += len(mst.CheckFact2(tree, 1e-7))
		for v := 0; v < tree.N(); v++ {
			if tree.Degree(v) == 5 {
				res.Degree5Vertices++
			}
		}
	}
	return res
}

// WriteFacts renders E-F2.
func WriteFacts(w io.Writer, r FactsResult) error {
	_, err := fmt.Fprintf(w,
		"E-F2 — Facts 1-2 audited on %d EMSTs: fact1 violations=%d fact2 violations=%d degree-5 vertices seen=%d\n",
		r.Instances, r.Fact1Violations, r.Fact2Violations, r.Degree5Vertices)
	return err
}

// CaseCoverage aggregates proof-case counters across instances
// (experiments E-F3/E-F4/E-F5/E-F6).
func CaseCoverage(cfg Config, k int, phi float64) map[string]int {
	cfg = cfg.orDefault()
	counts := map[string]int{}
	for s := 0; s < cfg.Seeds*len(cfg.Workloads); s++ {
		rng := rand.New(rand.NewSource(cfg.BaseSeed + int64(s)))
		pts := MakeWorkload(cfg.Workloads[s%len(cfg.Workloads)], rng, cfg.Sizes[s%len(cfg.Sizes)])
		_, res, err := core.Orient(pts, k, phi)
		if err != nil {
			continue
		}
		for c, n := range res.Cases {
			counts[c] += n
		}
	}
	return counts
}

// WriteCaseCoverage renders case counters sorted by label.
func WriteCaseCoverage(w io.Writer, title string, counts map[string]int) error {
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	keys := make([]string, 0, len(counts))
	for c := range counts {
		keys = append(keys, c)
	}
	// Insertion sort: tiny.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var rows [][]string
	for _, c := range keys {
		rows = append(rows, []string{c, d(counts[c])})
	}
	return WriteTable(w, []string{"case", "count"}, rows)
}
