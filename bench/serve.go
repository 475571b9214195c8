package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/network"
	"repro/internal/simsvc"
	"repro/internal/telemetry"
)

// countingWriter is the access-log sink. It is not io.Discard, which the log
// package short-circuits before formatting: the service's per-request log
// line is work its users pay for, so it stays measured.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// service is one in-process simserve: store, scheduler with one worker, and
// the HTTP handler, driven by calling ServeHTTP directly (no sockets).
type service struct {
	store *simsvc.Store
	sched *simsvc.Scheduler
	srv   *simsvc.Server
	logW  *countingWriter
}

func newService(dir string) (*service, error) {
	store, err := simsvc.NewStore(4096, dir)
	if err != nil {
		return nil, err
	}
	s := &service{store: store, logW: &countingWriter{}}
	s.sched = simsvc.NewScheduler(simsvc.SchedConfig{Workers: 1, Store: store})
	s.srv = simsvc.NewServer(s.sched)
	s.srv.SetLogger(log.New(s.logW, "", log.LstdFlags))
	return s, nil
}

// drain stops the scheduler and waits for its worker to exit.
func (s *service) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.sched.Drain(ctx)
}

func (s *service) post(body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
	return w
}

func (s *service) get(path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// jobReply is the part of a JobView the load generator reads.
type jobReply struct {
	ID     string           `json:"id"`
	Status simsvc.Status    `json:"status"`
	Cached bool             `json:"cached"`
	Spans  []telemetry.Span `json:"spans"`
	Result json.RawMessage  `json:"result"`
}

// sameJSON reports whether a and b are the same document up to whitespace
// (the API indents its replies, the cache stores compact payloads).
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// precompute executes every spec once, outside the service.
func precompute(specs []serveSpec) ([][]byte, error) {
	out := make([][]byte, len(specs))
	for i, sp := range specs {
		p, err := simsvc.Execute(context.Background(), sp.norm, nil)
		if err != nil {
			return nil, fmt.Errorf("execute spec %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// specCounts sums the simulation counters the payloads report.
func specCounts(specs []serveSpec, payloads [][]byte) simCounts {
	var c simCounts
	for i, p := range payloads {
		var r simsvc.Result
		if json.Unmarshal(p, &r) != nil {
			continue
		}
		var dig uint64
		fmt.Sscanf(r.Summary.Digest, "%x", &dig)
		c.add(runOutput{Digest: dig, Clock: specs[i].norm.Warmup + specs[i].norm.Measure,
			Flits: r.Summary.DeliveredFlits, Detects: r.Summary.DetectEvents,
			Deflects: r.Summary.Deflections, Rescues: r.Summary.Rescues,
			Deadlocks: r.Summary.Deadlocks})
	}
	return c
}

var cachedMark = []byte(`"cached": true`)

// hotRunner is serve_hot: every block is a fresh service prefilled with the
// precomputed results, then a fixed Zipf stream of POSTs that all hit.
type hotRunner struct {
	specs    []serveSpec
	payloads [][]byte
	draw     []int
	chunk    int // requests per segment
	stride   int // every stride-th op is traced
	svc      *service
	first    [][]byte // first reply per key in the current block
	fail     int
}

func newHotRunner(seed uint64, sz sizes) (*hotRunner, error) {
	specs, err := serveSpecs(seed, sz.hotKeys, sz.serveWarmup, sz.serveMeasure)
	if err != nil {
		return nil, err
	}
	payloads, err := precompute(specs)
	if err != nil {
		return nil, err
	}
	return &hotRunner{specs: specs, payloads: payloads,
		draw:  zipfDraw(seed, sz.hotKeys, sz.hotRequests),
		chunk: sz.hotChunk, stride: max(1, sz.hotRequests/1000)}, nil
}

func (h *hotRunner) segments() int     { return len(h.draw) / h.chunk }
func (h *hotRunner) segOps() int       { return h.chunk }
func (h *hotRunner) failedOps() int    { return h.fail }
func (h *hotRunner) counts() simCounts { return specCounts(h.specs, h.payloads) }

func (h *hotRunner) probeConfig() network.Config { return specConfig(h.specs[0]) }

func (h *hotRunner) prepare() error {
	svc, err := newService("")
	if err != nil {
		return err
	}
	for i, sp := range h.specs {
		if err := svc.store.Put(sp.hash, h.payloads[i]); err != nil {
			return err
		}
	}
	h.svc, h.first = svc, make([][]byte, len(h.specs))
	return nil
}

func (h *hotRunner) runSegment(seg int, rec *recorder, lat []time.Duration) (int64, error) {
	var cycles int64
	for j := range lat {
		i := seg*h.chunk + j
		k := h.draw[i]
		r := rec
		if i%h.stride != 0 {
			r = nil
		}
		sp := &h.specs[k]
		t0 := time.Now()
		root := r.begin("op", -1, i)
		s := r.begin("simsvc.post", root, i)
		w := h.svc.post(sp.body)
		r.end(s)
		s = r.begin("harness.check", root, i)
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), cachedMark) {
			h.fail++
		}
		if h.first[k] == nil {
			h.first[k] = w.Body.Bytes()
		}
		r.end(s)
		r.end(root)
		lat[j] = time.Since(t0)
		cycles += sp.norm.Warmup + sp.norm.Measure
	}
	return cycles, nil
}

// finish compares one reply per key with the prefilled payload and stops
// the block's service.
func (h *hotRunner) finish() error {
	for k, body := range h.first {
		if body == nil {
			continue
		}
		var v jobReply
		if json.Unmarshal(body, &v) != nil || !v.Cached || v.Status != simsvc.StatusDone ||
			!sameJSON(v.Result, h.payloads[k]) {
			h.fail++
		}
	}
	return h.svc.drain()
}

// verify has nothing further to run: every reply was checked inline and one
// per key per block against the payload.
func (h *hotRunner) verify() (int, int, error) { return 0, 0, nil }

// missRunner is serve_miss: every block is a fresh empty service and the
// same distinct specs, each submitted and polled until done.
type missRunner struct {
	specs []serveSpec
	chunk int // jobs per segment
	svc   *service
	ref   [][]byte // the first block's result payloads
	cur   [][]byte
	fail  int
}

func newMissRunner(seed uint64, sz sizes) (*missRunner, error) {
	specs, err := serveSpecs(seed, sz.missSpecs, sz.serveWarmup, sz.serveMeasure)
	if err != nil {
		return nil, err
	}
	return &missRunner{specs: specs, chunk: sz.missChunk, cur: make([][]byte, len(specs))}, nil
}

func (m *missRunner) segments() int  { return len(m.specs) / m.chunk }
func (m *missRunner) segOps() int    { return m.chunk }
func (m *missRunner) failedOps() int { return m.fail }
func (m *missRunner) counts() simCounts {
	if m.ref == nil {
		return simCounts{}
	}
	return specCounts(m.specs, m.ref)
}

func (m *missRunner) probeConfig() network.Config { return specConfig(m.specs[0]) }

func (m *missRunner) prepare() error {
	svc, err := newService("")
	m.svc = svc
	return err
}

const pollSleep = 100 * time.Microsecond

// missOp is one serve_miss op: POST the spec (202), sleep 100 us at a time
// until the scheduler has finished the job, then GET it once. The wait reads
// the scheduler's done counter instead of polling GET, so every op makes
// the same two requests whatever the timing and allocation per op repeats;
// polled GETs of a running job (one or two per job, by when the garbage
// collector let the generator run) made it vary by a few hundred bytes. It
// returns the final reply and the number of sleeps.
func missOp(svc *service, sp *serveSpec, rec *recorder, op int) (jobReply, int, error) {
	want := svc.sched.Metrics().JobsDone + 1
	root := rec.begin("op", -1, op)
	s := rec.begin("simsvc.post", root, op)
	w := svc.post(sp.body)
	rec.end(s)
	var v jobReply
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil || w.Code != http.StatusAccepted {
		return v, 0, fmt.Errorf("serve_miss: POST spec %d: status %d: %s", op, w.Code, w.Body.Bytes())
	}
	wait := rec.begin("harness.wait", root, op)
	sleeps := 0
	for m := svc.sched.Metrics(); m.JobsDone < want; m = svc.sched.Metrics() {
		if m.JobsFailed > 0 {
			return v, sleeps, fmt.Errorf("serve_miss: job %s failed", v.ID)
		}
		time.Sleep(pollSleep)
		sleeps++
	}
	rec.end(wait)
	s = rec.begin("simsvc.get_poll", root, op)
	w = svc.get("/v1/runs/" + v.ID)
	rec.end(s)
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil || v.Status != simsvc.StatusDone {
		return v, sleeps, fmt.Errorf("serve_miss: GET %s: status %q: %v", v.ID, v.Status, err)
	}
	rec.end(root)
	if rec != nil {
		// The service reports its job spans as durations only; with one
		// thread the job runs while the generator sleeps, so they are laid
		// back to back under the wait.
		at := rec.spans[wait].StartNs
		for _, js := range v.Spans {
			if js.Name != "encode" { // encode is inside execute
				at = rec.add("job."+js.Name, wait, op, at, js.DurUS*1000)
			}
		}
	}
	return v, sleeps, nil
}

func (m *missRunner) runSegment(seg int, rec *recorder, lat []time.Duration) (int64, error) {
	var cycles int64
	for j := range lat {
		i := seg*m.chunk + j
		sp := &m.specs[i]
		t0 := time.Now()
		v, _, err := missOp(m.svc, sp, rec, i)
		if err != nil {
			return 0, err
		}
		lat[j] = time.Since(t0)
		m.cur[i] = v.Result
		if v.Cached {
			m.fail++
		}
		cycles += sp.norm.Warmup + sp.norm.Measure
	}
	return cycles, nil
}

// finish checks that every payload is identical across blocks.
func (m *missRunner) finish() error {
	if m.ref == nil {
		m.ref = append([][]byte(nil), m.cur...)
	} else {
		for i := range m.cur {
			if !bytes.Equal(m.cur[i], m.ref[i]) {
				m.fail++
			}
		}
	}
	return m.svc.drain()
}

// verify compares a sample of served payloads with simsvc.Execute.
func (m *missRunner) verify() (attempted, failed int, err error) {
	step := max(1, len(m.specs)/10)
	for i := 0; i < len(m.specs); i += step {
		want, err := simsvc.Execute(context.Background(), m.specs[i].norm, nil)
		if err != nil {
			return attempted, failed, err
		}
		attempted++
		if !sameJSON(m.ref[i], want) {
			failed++
		}
	}
	return attempted, failed, nil
}
