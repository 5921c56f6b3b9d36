package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/instance"
	"repro/internal/service"
)

// antennadOptions are antennad's defaults: a 2 ms batch window, the
// 128 MiB in-memory LRU, no disk store. walDir, when set, adds the
// instance WAL at the interval policy.
func antennadOptions(walDir string) service.Options {
	opts := service.Options{BatchWindow: 2 * time.Millisecond, MaxBatch: 64}
	if walDir != "" {
		opts.InstanceWAL = &instance.WALConfig{Dir: walDir, Policy: instance.SyncInterval}
	}
	return opts
}

// harness is one in-process antennad: engine, API server and a loopback
// listener.
type harness struct {
	eng    *service.Engine
	api    *service.Server
	srv    *http.Server
	base   string
	walDir string
	served chan error
}

// startHarness serves a fresh engine on 127.0.0.1. withWAL gives the
// instance tier a WAL in a new directory under the work directory.
func startHarness(cfg config, withWAL bool) (*harness, error) {
	h := &harness{served: make(chan error, 1)}
	if withWAL {
		dir, err := cfg.tempDir("wal-")
		if err != nil {
			return nil, err
		}
		h.walDir = dir
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.removeWAL()
		return nil, err
	}
	h.eng = service.NewEngine(antennadOptions(h.walDir))
	h.api = service.NewServer(h.eng)
	h.srv = &http.Server{Handler: h.api.Handler(), ReadHeaderTimeout: 10 * time.Second}
	h.base = "http://" + ln.Addr().String()
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

// close shuts the server down, waits for it to stop serving, stops the
// engine and the WAL, and removes the WAL directory.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	h.eng.Close()
	err = errors.Join(err, h.api.Instances().Close())
	h.removeWAL()
	return err
}

func (h *harness) removeWAL() {
	if h.walDir != "" {
		_ = os.RemoveAll(h.walDir) // scratch space; a leftover is harmless
	}
}

// walBytes is the total size of the files under the WAL directory.
func (h *harness) walBytes() int64 {
	var total int64
	_ = filepath.WalkDir(h.walDir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil // a file removed mid-walk just drops out of the sum
	})
	return total
}

// spanSeq numbers client spans across the run.
var spanSeq atomic.Int64

// span is one client-side request interval of the traced run.
type span struct {
	ID           int64   `json:"id"`
	Parent       int64   `json:"parent"` // 0 for a root span
	TraceID      string  `json:"trace_id"`
	Name         string  `json:"name"`
	StartMS      float64 `json:"start_ms"` // from the run's epoch
	EndMS        float64 `json:"end_ms"`
	Status       int     `json:"status"`
	ServerTiming string  `json:"server_timing,omitempty"`
}

// record accumulates one client's observations over a loop segment.
type record struct {
	lat       []float64 // primary-op wall times, ms (successful ops only)
	read      []float64 // secondary read wall times, ms
	tally     tally
	reqBytes  int64
	respBytes int64
	spans     []span
	timing    map[string]float64 // Σ Server-Timing phase ms over primary ops
	timed     int                // primary ops whose Server-Timing parsed
}

func (r *record) merge(o *record) {
	r.lat = append(r.lat, o.lat...)
	r.read = append(r.read, o.read...)
	r.tally.merge(o.tally)
	r.reqBytes += o.reqBytes
	r.respBytes += o.respBytes
	r.spans = append(r.spans, o.spans...)
	if o.timing != nil {
		if r.timing == nil {
			r.timing = map[string]float64{}
		}
		for k, v := range o.timing {
			r.timing[k] += v
		}
	}
	r.timed += o.timed
}

// client is one closed-loop caller: it sends its next request only when
// the previous reply has been read.
type client struct {
	id     int
	http   *http.Client
	base   string
	ops    int // primary ops issued
	buf    bytes.Buffer
	rec    *record
	traced bool
	epoch  time.Time
}

func newClient(id int, base string, epoch time.Time) *client {
	return &client{
		id:    id,
		http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}},
		base:  base,
		rec:   &record{},
		epoch: epoch,
	}
}

// reply is one response; Body aliases the client's buffer and is valid
// until the client's next request.
type reply struct {
	Status int
	Header http.Header
	Body   []byte
	Wall   time.Duration
	span   int64
}

// call sends one request whose body is the concatenation of parts. When
// the client is traced it records a span named name under parent (0 for
// a root) carrying traceID and the server's Server-Timing header.
func (c *client) call(name string, parent int64, traceID, method, path string, hdr map[string]string, parts ...[]byte) (reply, error) {
	readers := make([]io.Reader, len(parts))
	var size int64
	for i, p := range parts {
		readers[i] = bytes.NewReader(p)
		size += int64(len(p))
	}
	var body io.Reader
	if len(parts) > 0 {
		body = io.MultiReader(readers...)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return reply{}, err
	}
	req.ContentLength = size
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if c.traced {
		req.Header.Set("X-Trace-Id", traceID)
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	wall := time.Since(start)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	rep := reply{Status: resp.StatusCode, Header: resp.Header, Body: c.buf.Bytes(), Wall: wall}
	if c.traced {
		rep.span = spanSeq.Add(1)
		c.rec.spans = append(c.rec.spans, span{
			ID: rep.span, Parent: parent, TraceID: traceID, Name: name,
			StartMS: ms(start.Sub(c.epoch)), EndMS: ms(time.Since(c.epoch)),
			Status: resp.StatusCode, ServerTiming: resp.Header.Get("Server-Timing"),
		})
	}
	return rep, nil
}

// primary records a successful primary op: its wall time, its bytes, and
// on traced segments its Server-Timing phases.
func (c *client) primary(rep reply, reqBytes int) {
	c.rec.tally.ok()
	c.rec.lat = append(c.rec.lat, ms(rep.Wall))
	c.rec.reqBytes += int64(reqBytes)
	c.rec.respBytes += int64(len(rep.Body))
	if !c.traced {
		return
	}
	phases, err := parseServerTiming(rep.Header.Get("Server-Timing"))
	if err != nil {
		return
	}
	if c.rec.timing == nil {
		c.rec.timing = map[string]float64{}
	}
	for k, v := range phases {
		c.rec.timing[k] += v
	}
	c.rec.timed++
}

// traceID names the client's i-th op; the spans of one op share it.
func (c *client) traceID() string {
	return "pb-" + strconv.Itoa(c.id) + "-" + strconv.Itoa(c.ops)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
