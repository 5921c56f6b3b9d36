package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/pointset"
	"repro/internal/solution"
)

// Workload sizing. Every pointset has nSensors sensors.
const (
	nSensors = 20000
	// side is the deployment square of the uniform family, which the
	// churn moves and joins stay inside.
	side = 12
	// hotKeys is the orient-hot working set: about 29 MB of artifacts,
	// well inside the 128 MiB LRU.
	hotKeys = 32
	// churnInstances live instances, split evenly across the three
	// repair classes.
	churnInstances = 12
	// coldRate and churnRate bound the rate the pre-encoded inputs can
	// feed (cold requests per second; patches per instance per second),
	// with headroom over the rates seen on a 2-core box (about 7/s for
	// both). A run that exhausts its inputs ends its window early.
	coldRate  = 12
	churnRate = 40
	// coldSampleEvery: every 4th cold response is decoded and checked
	// after the window (the deterministic sample).
	coldSampleEvery = 4
)

// workload is one traffic mix, driven by one closed-loop client.
type workload struct {
	name  string
	wal   bool
	build func(seed int64, window time.Duration) scenario
}

var workloads = map[string]*workload{
	"orient-cold":    {name: "orient-cold", build: newCold},
	"orient-hot":     {name: "orient-hot", build: newHot},
	"instance-churn": {name: "instance-churn", wal: true, build: newChurn},
}

// scenario holds one workload's generated inputs and drives them.
type scenario interface {
	// setup brings a fresh server to the workload's steady state.
	setup(h *harness) error
	// run performs client c's next primary op; false when the inputs
	// are exhausted.
	run(c *client) bool
	// settle brings the server to the state its live heap is measured
	// in, after the window and outside it.
	settle(h *harness, res *result)
	// check runs the post-window correctness checks against the server,
	// counting failures in res.tally.
	check(h *harness, res *result)
	// release drops the client-side inputs before the heap is measured.
	release()
	// solveSample is the fixed sample of inputs the traced run replays
	// through the solver layers.
	solveSample() []solveItem
}

// budget is a request's (k, φ) and selection: an explicit orienter, or
// (algo == "") the objective {conn: strong, minimize: stretch}.
type budget struct {
	k    int
	phi  float64
	algo string
}

var (
	coverBudget  = budget{k: 2, phi: core.Phi2Full, algo: "cover"}
	tworayBudget = budget{k: 2, phi: 0} // the planner picks tworay
	tourBudget   = budget{k: 1, phi: math.Pi, algo: "tour"}
	batsBudget   = budget{k: 1, phi: core.Phi1Full, algo: "bats"}
)

// solveItem is one replayed solve: the points and their budget.
type solveItem struct {
	pts []geom.Point
	b   budget
}

// stream derives an independent generator for input i of a stream.
func stream(seed int64, kind, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(kind)*10_007 + int64(i)))
}

// Input streams.
const (
	streamCold = iota + 1
	streamWarm
	streamHot
	streamChurnPts
	streamChurnOps
)

// appendPoints writes "points":[...] with coordinates that parse back to
// the same float64s.
func appendPoints(b []byte, pts []geom.Point) []byte {
	b = append(b, `"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x":`...)
		b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
		b = append(b, `,"y":`...)
		b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendBudget writes ,"k":..,"phi":.. and the selection.
func appendBudget(b []byte, bg budget) []byte {
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(bg.k), 10)
	b = append(b, `,"phi":`...)
	b = strconv.AppendFloat(b, bg.phi, 'g', -1, 64)
	if bg.algo != "" {
		return append(b, `,"algo":"`+bg.algo+`"`...)
	}
	return append(b, `,"objective":{"conn":"strong","minimize":"stretch"}`...)
}

// orientTail is an /orient body without its opening brace; a request
// sends formatHead[f] followed by the tail.
func orientTail(pts []geom.Point, bg budget) []byte {
	b := appendPoints(make([]byte, 0, 48*len(pts)+128), pts)
	return append(appendBudget(b, bg), '}')
}

// Response formats and the body heads that select them.
const (
	formatJSON = iota
	formatBinary
)

var formatHead = [2][]byte{[]byte(`{"format":"json",`), []byte(`{"format":"binary",`)}

// orientInput is one pre-encoded /orient request.
type orientInput struct {
	tail   []byte
	digest string
	b      budget
}

func newOrientInput(pts []geom.Point, bg budget) orientInput {
	return orientInput{tail: orientTail(pts, bg), digest: solution.Digest(pts), b: bg}
}

// orient sends an /orient request in the given format and checks status
// 200 and X-Cache.
func (c *client) orient(in orientInput, format int, wantCache string) (reply, error) {
	rep, err := c.call("orient", 0, c.traceID(), "POST", "/orient", nil, formatHead[format], in.tail)
	if err != nil {
		return rep, err
	}
	if rep.Status != 200 {
		return rep, fmt.Errorf("/orient: status %d: %.200s", rep.Status, rep.Body)
	}
	if got := rep.Header.Get("X-Cache"); got != wantCache {
		return rep, fmt.Errorf("/orient: X-Cache %q, want %q", got, wantCache)
	}
	return rep, nil
}

// checkArtifact checks a decoded artifact against the points sent.
func checkArtifact(sol *solution.Solution, digest string) error {
	switch {
	case !sol.Verified:
		return fmt.Errorf("artifact not verified: %v", sol.VerifyErrors)
	case sol.PointsDigest != digest:
		return fmt.Errorf("artifact digest %.12s, want %.12s", sol.PointsDigest, digest)
	case sol.N != nSensors:
		return fmt.Errorf("artifact n=%d, want %d", sol.N, nSensors)
	}
	return nil
}

// ---- orient-cold ----------------------------------------------------

// coldScenario sends every request with a pointset never seen before.
type coldScenario struct {
	seed    int64
	warm    []orientInput
	inputs  []orientInput
	next    int            // index of the next input to send
	samples map[int][]byte // sampled response bodies by input index
}

// coldPoints is cold input i: the families alternate uniform and
// clusters.
func coldPoints(seed int64, i int) []geom.Point {
	family := "uniform"
	if i%2 == 1 {
		family = "clusters"
	}
	return pointset.Workload(family, stream(seed, streamCold, i), nSensors)
}

// coldBudget is cold input i's budget: pairs alternate cover and the
// tworay objective, so each family meets each budget.
func coldBudget(i int) budget {
	if (i/2)%2 == 0 {
		return coverBudget
	}
	return tworayBudget
}

func newCold(seed int64, window time.Duration) scenario {
	s := &coldScenario{seed: seed}
	for i, bg := range []budget{coverBudget, tworayBudget} {
		s.warm = append(s.warm, newOrientInput(pointset.Uniform(stream(seed, streamWarm, i), nSensors, side), bg))
	}
	n := int(math.Ceil(window.Seconds()*coldRate)) + 2
	for i := 0; i < n; i++ {
		s.inputs = append(s.inputs, newOrientInput(coldPoints(seed, i), coldBudget(i)))
	}
	return s
}

// setup warms the server with two solves, one per budget, on pointsets
// the window never sends.
func (s *coldScenario) setup(h *harness) error {
	s.samples = map[int][]byte{}
	c := newClient(-1, h.base, time.Now())
	defer c.http.CloseIdleConnections()
	for _, in := range s.warm {
		if _, err := c.orient(in, formatJSON, "miss"); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (s *coldScenario) run(c *client) bool {
	i := s.next
	if i >= len(s.inputs) {
		return false
	}
	s.next++
	in := s.inputs[i]
	rep, err := c.orient(in, formatJSON, "miss")
	c.ops++
	s.inputs[i].tail = nil // sent once; let the collector have it
	if err != nil {
		c.rec.tally.fail("cold %d: %v", i, err)
		return true
	}
	c.primary(rep, len(formatHead[formatJSON])+len(in.tail))
	if i%coldSampleEvery == 0 {
		s.samples[i] = bytes.Clone(rep.Body)
	}
	return true
}

// settle tops the LRU up to its byte budget with untimed requests, so
// that heap_live_mb holds a full cache whatever the window's throughput;
// a slow window would leave it part-filled and the live heap would
// track throughput. Every request misses, so the LRU has evicted, and
// is full, once it holds fewer artifacts than there were misses.
func (s *coldScenario) settle(h *harness, res *result) {
	cache := h.eng.Cache()
	c := newClient(-2, h.base, time.Now())
	defer c.http.CloseIdleConnections()
	sent := 0
	defer func() { res.note("LRU top-up before heap_live_mb: %d untimed requests", sent) }()
	for {
		if _, misses := cache.Stats(); uint64(cache.Len()) < misses {
			return
		}
		i := s.next
		s.next++
		if i >= len(s.inputs) {
			res.note("the inputs ran out before the LRU filled: heap_live_mb holds a part-filled cache")
			return
		}
		_, err := c.orient(s.inputs[i], formatJSON, "miss")
		s.inputs[i].tail = nil
		sent++
		if err != nil {
			res.tally.fail("cold top-up %d: %v", i, err)
		} else {
			res.tally.ok()
		}
	}
}

func (s *coldScenario) check(_ *harness, res *result) {
	for i, body := range s.samples {
		sol, err := solution.DecodeJSON(body)
		if err == nil {
			err = checkArtifact(sol, s.inputs[i].digest)
		}
		if err != nil {
			res.tally.failCheck("cold %d: %v", i, err)
		}
	}
}

func (s *coldScenario) release() { s.warm, s.inputs, s.samples = nil, nil, nil }

func (s *coldScenario) solveSample() []solveItem {
	items := make([]solveItem, 6)
	for i := range items {
		items[i] = solveItem{pts: coldPoints(s.seed, i), b: coldBudget(i)}
	}
	return items
}

// ---- orient-hot -----------------------------------------------------

// hotScenario repeats a fixed working set that setup primes.
type hotScenario struct {
	seed int64
	keys []orientInput
	// refs[k][f] is the first response for key k in format f; every
	// later response must equal it byte for byte.
	refs [][2][]byte
}

// hotPoints is hot key i's pointset.
func hotPoints(seed int64, i int) []geom.Point {
	return pointset.Uniform(stream(seed, streamHot, i), nSensors, side)
}

// hotBudget alternates cover and the tworay objective across keys.
func hotBudget(i int) budget {
	if i%2 == 0 {
		return coverBudget
	}
	return tworayBudget
}

func newHot(seed int64, _ time.Duration) scenario {
	s := &hotScenario{seed: seed}
	for i := 0; i < hotKeys; i++ {
		s.keys = append(s.keys, newOrientInput(hotPoints(seed, i), hotBudget(i)))
	}
	return s
}

// setup primes every key: a JSON request that must miss, then a binary
// one that must hit memory. Those first responses are the references.
func (s *hotScenario) setup(h *harness) error {
	s.refs = make([][2][]byte, len(s.keys))
	return setupEach(h, len(s.keys), func(c *client, k int) error {
		for f, want := range [2]string{"miss", "memory"} {
			rep, err := c.orient(s.keys[k], f, want)
			if err != nil {
				return fmt.Errorf("priming key %d: %w", k, err)
			}
			s.refs[k][f] = bytes.Clone(rep.Body)
		}
		return nil
	})
}

// setupEach runs do(c, i) for i in [0, n), in order, on one closed-loop
// setup client, and stops at the first error.
func setupEach(h *harness, n int, do func(c *client, i int) error) error {
	c := newClient(-1, h.base, time.Now())
	defer c.http.CloseIdleConnections()
	for i := 0; i < n; i++ {
		if err := do(c, i); err != nil {
			return err
		}
	}
	return nil
}

// run sends the keys round robin, three in four in JSON and one in
// binary. The binary quarter of the keys rotates from round to round, so
// every 64 consecutive requests hold each key, budget and format in the
// same proportions. The latencies of those classes differ; drawing them
// at random would shift the median with the draw.
func (s *hotScenario) run(c *client) bool {
	k := c.ops % len(s.keys)
	f := formatJSON
	if (k+c.ops/len(s.keys))%4 == 3 {
		f = formatBinary
	}
	rep, err := c.orient(s.keys[k], f, "memory")
	c.ops++
	if err == nil && !bytes.Equal(rep.Body, s.refs[k][f]) {
		err = fmt.Errorf("response differs from the first response for its key")
	}
	if err != nil {
		c.rec.tally.fail("hot key %d format %d: %v", k, f, err)
		return true
	}
	c.primary(rep, len(formatHead[f])+len(s.keys[k].tail))
	return true
}

// check decodes every reference: both formats must decode to the same
// verified artifact of the points sent.
func (s *hotScenario) check(_ *harness, res *result) {
	for k, ref := range s.refs {
		sol, err := solution.DecodeJSON(ref[formatJSON])
		if err == nil {
			err = checkArtifact(sol, s.keys[k].digest)
		}
		if err == nil {
			var bin *solution.Solution
			if bin, err = solution.DecodeBinary(ref[formatBinary]); err == nil {
				var again []byte
				again, err = bin.EncodeJSON()
				if err == nil && !bytes.Equal(again, ref[formatJSON]) {
					err = fmt.Errorf("binary and JSON artifacts differ")
				}
			}
		}
		if err != nil {
			res.tally.failCheck("hot key %d: %v", k, err)
		}
	}
}

func (s *hotScenario) settle(*harness, *result) {}

func (s *hotScenario) release() { s.keys, s.refs = nil, nil }

func (s *hotScenario) solveSample() []solveItem {
	items := make([]solveItem, 6)
	for i := range items {
		items[i] = solveItem{pts: hotPoints(s.seed, i), b: hotBudget(i)}
	}
	return items
}

// ---- instance-churn ---------------------------------------------------

// churnInstance is one live instance with its pre-encoded inputs.
type churnInstance struct {
	id      string
	class   string
	pts     []geom.Point
	b       budget
	create  []byte
	batches [][]instance.Op
	patches [][]byte
	used    int
	rev     uint64
	fulls   int // patches answered by a full-solve fallback
}

// maxFallbackFrac bounds the share of patches that may fall back to a
// full solve. A fallback is a verified revision within the instance
// tier's contract (a splice or 2-opt repair may bail), so a rare one is
// not a failure; more than this means the workload no longer measures
// incremental repair.
const maxFallbackFrac = 0.01

// churnClasses are the instance budgets by i mod 3, one per repair
// class.
var churnClasses = [3]struct {
	class string
	b     budget
}{
	{core.RepairClassEMST, coverBudget},
	{core.RepairClassTour, tourBudget},
	{core.RepairClassBats, batsBudget},
}

// newChurnInstances generates count instances with batches patches each:
// uniform pointsets, and dynamics.ChurnBatch batches of 2 moves, 1 join
// and 1 fail, which keep n fixed so every batch stays valid in order.
func newChurnInstances(seed int64, count, batches int) []*churnInstance {
	out := make([]*churnInstance, count)
	for i := range out {
		cls := churnClasses[i%len(churnClasses)]
		in := &churnInstance{
			id:    fmt.Sprintf("churn-%02d", i),
			class: cls.class,
			pts:   pointset.Uniform(stream(seed, streamChurnPts, i), nSensors, side),
			b:     cls.b,
			rev:   1,
		}
		b := appendPoints([]byte(`{"id":"`+in.id+`",`), in.pts)
		in.create = append(appendBudget(b, in.b), '}')
		rng := stream(seed, streamChurnOps, i)
		for j := 0; j < batches; j++ {
			ops := dynamics.ChurnBatch(rng, nSensors, 2, 1, 1, side)
			body, err := json.Marshal(struct {
				Ops []instance.Op `json:"ops"`
			}{ops})
			if err != nil {
				panic(err) // plain structs of numbers always marshal
			}
			in.batches = append(in.batches, ops)
			in.patches = append(in.patches, body)
		}
		out[i] = in
	}
	return out
}

// churnScenario patches live instances with chained If-Match revisions
// and reads each new revision back as a delta.
type churnScenario struct {
	insts []*churnInstance
}

func newChurn(seed int64, window time.Duration) scenario {
	per := int(math.Ceil(window.Seconds()*churnRate)) + churnInstances*churnStagger
	return &churnScenario{insts: newChurnInstances(seed, churnInstances, per)}
}

// churnStagger is how many revisions older each instance is than the
// one before it when the window opens. An instance keeps up to about 35
// evicted revisions reachable behind its 32-revision history window, in
// a cycle that repeats every 35 revisions. Instances at one age would
// sit at the same point of that cycle, and the live heap would swing
// with it from run to run; ages 0, 3, …, 33 spread them over it, as the
// ages of live instances are spread.
const churnStagger = 3

// setup creates the instances, then ages instance i by i·churnStagger
// patches.
func (s *churnScenario) setup(h *harness) error {
	for _, in := range s.insts {
		in.used, in.rev, in.fulls = 0, 1, 0
	}
	return setupEach(h, len(s.insts), func(c *client, i int) error {
		in := s.insts[i]
		if err := c.createInstance(in); err != nil {
			return err
		}
		for j := 0; j < i*churnStagger; j++ {
			if _, err := c.patch(in); err != nil {
				return fmt.Errorf("ageing: %w", err)
			}
		}
		return nil
	})
}

func (c *client) createInstance(in *churnInstance) error {
	rep, err := c.call("create", 0, c.traceID(), "POST", "/instances", nil, in.create)
	if err != nil {
		return fmt.Errorf("create %s: %w", in.id, err)
	}
	var body struct {
		Rev      uint64 `json:"rev"`
		Verified bool   `json:"verified"`
	}
	if rep.Status != 201 || json.Unmarshal(rep.Body, &body) != nil || body.Rev != 1 || !body.Verified {
		return fmt.Errorf("create %s: status %d: %.200s", in.id, rep.Status, rep.Body)
	}
	return nil
}

// patchReply is the part of the PATCH response the checks read.
type patchReply struct {
	Rev      uint64 `json:"rev"`
	Verified bool   `json:"verified"`
}

// patch applies instance in's next batch, conditional on its current
// revision, and checks the new revision: rev+1, verified, and repaired
// incrementally or by a full-solve fallback (counted in in.fulls). The
// revision advances whenever the server took the batch.
func (c *client) patch(in *churnInstance) (reply, error) {
	hdr := map[string]string{"If-Match": strconv.Quote(strconv.FormatUint(in.rev, 10))}
	rep, err := c.call("patch", 0, c.traceID(), "PATCH", "/instances/"+in.id, hdr, in.patches[in.used])
	if err != nil {
		return rep, err
	}
	if rep.Status != 200 {
		return rep, fmt.Errorf("PATCH %s: status %d: %.200s", in.id, rep.Status, rep.Body)
	}
	in.used++
	in.rev++
	var pr patchReply
	if err := json.Unmarshal(rep.Body, &pr); err != nil {
		return rep, fmt.Errorf("PATCH %s: %w", in.id, err)
	}
	switch {
	case pr.Rev != in.rev:
		return rep, fmt.Errorf("PATCH %s: rev %d, want %d", in.id, pr.Rev, in.rev)
	case !pr.Verified:
		return rep, fmt.Errorf("PATCH %s rev %d: not verified", in.id, pr.Rev)
	}
	switch repair := rep.Header.Get("X-Repair"); repair {
	case instance.RepairIncremental:
	case instance.RepairFull:
		in.fulls++
	default:
		return rep, fmt.Errorf("PATCH %s rev %d: X-Repair %q, want incremental or full", in.id, pr.Rev, repair)
	}
	return rep, nil
}

// readDelta fetches the current revision's delta and checks its ETag.
func (c *client) readDelta(in *churnInstance, parent int64) (reply, error) {
	rep, err := c.call("read", parent, c.traceID(), "GET", "/instances/"+in.id+"?delta=1", nil)
	if err != nil {
		return rep, err
	}
	if rep.Status != 200 || len(rep.Body) == 0 {
		return rep, fmt.Errorf("GET %s delta: status %d", in.id, rep.Status)
	}
	if want := strconv.Quote(strconv.FormatUint(in.rev, 10)); rep.Header.Get("ETag") != want {
		return rep, fmt.Errorf("GET %s delta: ETag %s, want %s", in.id, rep.Header.Get("ETag"), want)
	}
	return rep, nil
}

// run patches the next instance, round robin, then reads the delta.
func (s *churnScenario) run(c *client) bool {
	in := s.insts[c.ops%len(s.insts)]
	if in.used >= len(in.patches) {
		return false
	}
	size := len(in.patches[in.used])
	rep, err := c.patch(in)
	c.ops++
	if err != nil {
		c.rec.tally.fail("%v", err)
		return true
	}
	c.primary(rep, size)
	rd, err := c.readDelta(in, rep.span)
	if err != nil {
		c.rec.tally.fail("%v", err)
		return true
	}
	c.rec.tally.ok()
	c.rec.read = append(c.rec.read, ms(rd.Wall))
	return true
}

// check replays each instance's applied batches on the client and
// checks the current artifact against those points, then applies the
// last delta to the previous revision: it must reproduce the current
// artifact byte for byte.
func (s *churnScenario) check(h *harness, res *result) {
	c := newClient(-9, h.base, time.Now())
	defer c.http.CloseIdleConnections()
	var patches, fulls int
	for _, in := range s.insts {
		patches += in.used
		fulls += in.fulls
		if err := c.checkInstance(in); err != nil {
			res.tally.failCheck("%s: %v", in.id, err)
		}
	}
	res.note("full-solve fallbacks: %d of %d patches", fulls, patches)
	if float64(fulls) > maxFallbackFrac*float64(patches) {
		res.tally.failCheck("%d of %d patches fell back to a full solve", fulls, patches)
	}
}

func (c *client) checkInstance(in *churnInstance) error {
	pts := in.pts
	for _, ops := range in.batches[:in.used] {
		var err error
		if pts, err = solution.ApplyPointOps(pts, ops); err != nil {
			return err
		}
	}
	get := func(query string) ([]byte, error) {
		rep, err := c.call("check", 0, "", "GET", "/instances/"+in.id+query, nil)
		if err == nil && rep.Status != 200 {
			err = fmt.Errorf("GET %s%s: status %d", in.id, query, rep.Status)
		}
		return bytes.Clone(rep.Body), err
	}
	cur, err := get("")
	if err != nil {
		return err
	}
	sol, err := solution.DecodeJSON(cur)
	if err != nil {
		return err
	}
	if err := checkArtifact(sol, solution.Digest(pts)); err != nil {
		return err
	}
	if in.rev < 2 {
		return nil
	}
	delta, err := get("?delta=1")
	if err != nil {
		return err
	}
	prevJSON, err := get("?rev=" + strconv.FormatUint(in.rev-1, 10))
	if err != nil {
		return err
	}
	prev, err := solution.DecodeJSON(prevJSON)
	if err != nil {
		return err
	}
	next, err := solution.ApplyDelta(prev, delta)
	if err != nil {
		return err
	}
	again, err := next.EncodeJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(again, cur) {
		return fmt.Errorf("delta applied to rev %d does not reproduce rev %d", in.rev-1, in.rev)
	}
	return nil
}

func (s *churnScenario) settle(*harness, *result) {}

func (s *churnScenario) release() { s.insts = nil }

// solveSample replays the first instances' pointsets under the two
// orient budgets.
func (s *churnScenario) solveSample() []solveItem {
	items := make([]solveItem, 6)
	for i := range items {
		bg := coverBudget
		if i%2 == 1 {
			bg = tworayBudget
		}
		items[i] = solveItem{pts: s.insts[i].pts, b: bg}
	}
	return items
}
