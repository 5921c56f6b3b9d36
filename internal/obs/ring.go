package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Ring keeps a bounded window of finished traces: the most recent N and,
// separately, the slowest N seen so far. Recording and snapshotting are
// safe for concurrent use; the ring never grows past its caps.
type Ring struct {
	mu        sync.Mutex
	recent    []*Trace // circular buffer, next points at the oldest slot
	next      int
	recentLen int
	slow      []*Trace // ascending by wall time, at most slowCap entries
	slowCap   int
}

// NewRing builds a ring holding recentCap recent traces and slowCap
// slowest traces (caps are clamped to at least 1).
func NewRing(recentCap, slowCap int) *Ring {
	if recentCap < 1 {
		recentCap = 1
	}
	if slowCap < 1 {
		slowCap = 1
	}
	return &Ring{recent: make([]*Trace, recentCap), slowCap: slowCap}
}

// Record adds a finished trace to the ring.
func (r *Ring) Record(t *Trace) {
	if t == nil {
		return
	}
	wall := t.Wall()
	r.mu.Lock()
	r.recent[r.next] = t
	r.next = (r.next + 1) % len(r.recent)
	if r.recentLen < len(r.recent) {
		r.recentLen++
	}
	// Insert into the slow list (ascending); drop the fastest when full.
	i := 0
	for i < len(r.slow) && r.slow[i].Wall() < wall {
		i++
	}
	r.slow = append(r.slow, nil)
	copy(r.slow[i+1:], r.slow[i:])
	r.slow[i] = t
	if len(r.slow) > r.slowCap {
		r.slow = r.slow[1:]
	}
	r.mu.Unlock()
}

// TraceView is the JSON shape of one trace in the /debug/traces payload.
type TraceView struct {
	TraceID string     `json:"trace_id"`
	Begin   string     `json:"begin"`
	WallMS  float64    `json:"wall_ms"`
	Attrs   []Attr     `json:"attrs,omitempty"`
	Spans   []SpanView `json:"spans"`
}

// SpanView is the JSON shape of one span.
type SpanView struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	Parent  int     `json:"parent"`
}

// RingSnapshot is the /debug/traces payload.
type RingSnapshot struct {
	Recent []TraceView `json:"recent"`
	Slow   []TraceView `json:"slow"`
}

// Snapshot copies the ring's current contents, most recent (and slowest)
// first.
func (r *Ring) Snapshot() RingSnapshot {
	r.mu.Lock()
	recent := make([]*Trace, 0, r.recentLen)
	for i := 0; i < r.recentLen; i++ {
		// Walk backwards from the most recently written slot.
		idx := (r.next - 1 - i + 2*len(r.recent)) % len(r.recent)
		recent = append(recent, r.recent[idx])
	}
	slow := make([]*Trace, len(r.slow))
	for i := range r.slow {
		slow[i] = r.slow[len(r.slow)-1-i]
	}
	r.mu.Unlock()

	snap := RingSnapshot{Recent: make([]TraceView, 0, len(recent)), Slow: make([]TraceView, 0, len(slow))}
	for _, t := range recent {
		snap.Recent = append(snap.Recent, viewOf(t))
	}
	for _, t := range slow {
		snap.Slow = append(snap.Slow, viewOf(t))
	}
	return snap
}

func viewOf(t *Trace) TraceView {
	spans, attrs := t.Snapshot()
	v := TraceView{
		TraceID: t.ID,
		Begin:   t.Begin.Format(time.RFC3339Nano),
		WallMS:  float64(t.Wall()) / 1e6,
		Attrs:   attrs,
		Spans:   make([]SpanView, 0, len(spans)),
	}
	for _, s := range spans {
		d := s.Dur
		if d < 0 {
			d = 0
		}
		v.Spans = append(v.Spans, SpanView{
			Name:    s.Name,
			StartMS: float64(s.Start) / 1e6,
			DurMS:   float64(d) / 1e6,
			Parent:  s.Parent,
		})
	}
	return v
}

// ServeHTTP writes the ring snapshot as JSON — the /debug/traces
// endpoint.
func (r *Ring) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(r.Snapshot())
}
