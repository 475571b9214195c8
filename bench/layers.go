package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/schemes"
	"repro/internal/simsvc"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// layerInputs are what the per-layer probes run on: the workload's first
// engine configuration (for the serving workloads, the configuration their
// specs describe) and a set of serving specs with their results.
type layerInputs struct {
	cfg      network.Config
	specs    []serveSpec
	payloads [][]byte
	reps     int    // repetitions per probe
	chunk    int64  // cycles per timed RunCycles chunk
	tmpDir   string // where the disk-store probe makes its directory
}

// specConfig is the network configuration a serveSpec normalizes to,
// rebuilt from the defaults the way simsvc does it; probeService checks the
// equivalence by digest.
func specConfig(sp serveSpec) network.Config {
	cfg := network.DefaultConfig()
	cfg.Scheme, cfg.Pattern = schemes.PR, protocol.PAT271
	cfg.Radix, cfg.Rate, cfg.Seed = sp.norm.Radix, sp.norm.Rate, sp.norm.Seed
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = sp.norm.Warmup, sp.norm.Measure, sp.norm.MaxDrain
	cfg.CWGInterval = sp.norm.CWGInterval
	return cfg
}

// phaseKeys names the cycle profiler's phases in telemetry.Phase order.
var phaseKeys = [telemetry.NumPhases]string{
	"source", "protocol", "routing", "arbitration", "rescue", "credit", "deadlock", "obs"}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// probeLayers times each layer from outside, around its public calls, and
// stores the results in m.
func probeLayers(in layerInputs, m map[string]float64) error {
	if err := probeNetwork(in, m); err != nil {
		return err
	}
	probeRoutingAndStats(in, m)
	if err := probeService(in, m); err != nil {
		return err
	}
	return probeCluster(in, m)
}

func probeNetwork(in layerInputs, m map[string]float64) error {
	var err error
	m["network.new_us"] = us(repeatNs(in.reps, func() {
		var n *network.Network
		if n, err = network.New(in.cfg); err == nil {
			n.Step() // the first step builds the lazy candidate memo
		}
	}))
	if err != nil {
		return err
	}

	// A probe network that never leaves its measurement phase, stepped to
	// steady state first.
	long := in.cfg
	long.Measure = 1 << 40
	n, err := network.New(long)
	if err != nil {
		return err
	}
	n.RunCycles(long.Warmup)
	m["deadlock.scan_us"], m["deadlock.scans_per_kcycle"] = 0, 0
	var scans int64
	if n.Detector != nil {
		scans = n.Detector.Scans
	}
	from := n.Clock.Now()
	m["network.step_ns"] = repeatNs(in.reps, func() { n.RunCycles(in.chunk) }) / float64(in.chunk)
	if n.Detector != nil {
		// Counted over the cycles just stepped, before the probe below adds
		// scans of its own.
		m["deadlock.scans_per_kcycle"] = 1000 * float64(n.Detector.Scans-scans) / float64(n.Clock.Now()-from)
		m["deadlock.scan_us"] = us(repeatNs(in.reps, func() { n.Detector.ScanAt(n.Clock.Now()) }))
	}
	var snap *network.Snapshot
	m["network.snapshot_us"] = us(repeatNs(in.reps, func() { snap = n.Snapshot() }))
	m["network.restore_us"] = us(repeatNs(in.reps, func() { n.Restore(snap) }))

	// Phase split through the public cycle profiler. Attaching it forces
	// dense stepping, so on a sparse configuration these are dense-engine
	// costs (note "dense_forced" in the README).
	p, err := network.New(long)
	if err != nil {
		return err
	}
	prof := telemetry.NewCycleProfiler(1)
	p.AttachProfiler(prof)
	p.RunCycles(long.Warmup)
	phaseChunk := max(in.chunk/4, 1)
	samples := make([][]float64, telemetry.NumPhases)
	prev := phaseTotals(prof)
	for r := 0; r < in.reps; r++ {
		p.RunCycles(phaseChunk)
		cur := phaseTotals(prof)
		for ph := range samples {
			samples[ph] = append(samples[ph], float64(cur[ph]-prev[ph])/float64(phaseChunk))
		}
		prev = cur
	}
	for ph, key := range phaseKeys {
		m["network.phase_ns."+key] = fastTime(samples[ph])
	}
	m["network.phase_accounted_share"] = prof.Breakdown().AccountedFraction

	// Activity shares, exact: one full run of the configuration on the
	// active-set engine, sampled at the end of every cycle.
	a, err := network.New(in.cfg)
	if err != nil {
		return err
	}
	var cycles, routers, nis, idle int64
	a.OnCycle = func(int64) {
		cycles++
		busy := false
		for id := range a.Routers {
			if a.RouterActive(id) {
				routers++
				busy = true
			}
		}
		for ep := range a.NIs {
			if a.NIActive(ep) {
				nis++
				busy = true
			}
		}
		if !busy {
			idle++
		}
	}
	a.Run()
	m["network.active_router_share"] = float64(routers) / float64(cycles*int64(len(a.Routers)))
	m["network.active_ni_share"] = float64(nis) / float64(cycles*int64(len(a.NIs)))
	m["network.idle_cycle_share"] = float64(idle) / float64(cycles)
	return nil
}

// phaseTotals returns the profiler's accumulated ns per phase, in Phase
// order (Breakdown sorts by cost).
func phaseTotals(prof *telemetry.CycleProfiler) [telemetry.NumPhases]int64 {
	var out [telemetry.NumPhases]int64
	for _, st := range prof.Breakdown().Phases {
		for ph := telemetry.Phase(0); ph < telemetry.NumPhases; ph++ {
			if ph.String() == st.Phase {
				out[ph] = st.Ns
			}
		}
	}
	return out
}

func probeRoutingAndStats(in layerInputs, m map[string]float64) {
	t, err := topology.NewTorus([]int{8, 8}, 1)
	if err != nil {
		panic(err) // a fixed, valid radix
	}
	set := routing.VCSet{Escape: []int{0, 1}, Adaptive: []int{2, 3}}
	scratch := make([]routing.PortVC, 0, 32)
	calls := 3 * t.Routers() * t.Routers()
	m["routing.candidates_ns"] = repeatNs(in.reps, func() {
		for _, mode := range []routing.Mode{routing.DOR, routing.Duato, routing.TFAR} {
			for cur := 0; cur < t.Routers(); cur++ {
				for dst := 0; dst < t.Routers(); dst++ {
					scratch = routing.AppendCandidates(scratch[:0], t, mode,
						topology.NodeID(cur), topology.NodeID(dst), 0, set)
				}
			}
		}
	}) / float64(calls)

	var h stats.LatencyHist
	m["stats.hist_add_ns"] = repeatNs(in.reps, func() {
		for v := int64(1); v <= 4096; v++ {
			h.Add(v * 7 % 2048)
		}
	}) / 4096
}

func probeService(in layerInputs, m map[string]float64) error {
	specs, payloads := in.specs, in.payloads
	k := len(specs)

	// Pure functions of a spec.
	raws := make([]simsvc.RunSpec, k)
	for i, sp := range specs {
		if err := json.Unmarshal(sp.body, &raws[i]); err != nil {
			return err
		}
	}
	m["simsvc.normalize_ns"] = repeatNs(in.reps, func() {
		for i := range raws {
			raws[i].Normalized()
		}
	}) / float64(k)
	m["simsvc.hash_ns"] = repeatNs(in.reps, func() {
		for i := range specs {
			specs[i].norm.Hash()
		}
	}) / float64(k)

	// The store, in memory and on disk. The disk store keeps one entry in
	// memory and the probe alternates keys, so every Get reads its file.
	mem, err := simsvc.NewStore(4096, "")
	if err != nil {
		return err
	}
	m["simsvc.store_put_ns"] = repeatNs(in.reps, func() {
		for i := range specs {
			mem.Put(specs[i].hash, payloads[i])
		}
	}) / float64(k)
	m["simsvc.store_get_ns"] = repeatNs(in.reps, func() {
		for i := range specs {
			mem.Get(specs[i].hash)
		}
	}) / float64(k)
	if err := os.MkdirAll(in.tmpDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(in.tmpDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := simsvc.NewStore(1, dir)
	if err != nil {
		return err
	}
	i := 0
	m["simsvc.store_put_disk_us"] = us(repeatNs(in.reps, func() {
		if e := disk.Put(specs[i%k].hash, payloads[i%k]); e != nil {
			err = e
		}
		i++
	}))
	if err != nil {
		return err
	}
	n := min(k, in.reps)
	m["simsvc.store_get_disk_us"] = us(repeatNs(in.reps, func() {
		if _, ok := disk.Get(specs[i%n].hash); !ok {
			err = fmt.Errorf("disk store lost %s", specs[i%n].hash)
		}
		i++
	}))
	if err != nil {
		return err
	}

	// The handler on cache hits: rounds of one POST per spec.
	hit, err := newService("")
	if err != nil {
		return err
	}
	for i, sp := range specs {
		hit.store.Put(sp.hash, payloads[i])
	}
	var bytesOut, hits int64
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	m["simsvc.handler_us.post_hit"] = us(repeatNs(in.reps, func() {
		for i := range specs {
			w := hit.post(specs[i].body)
			bytesOut += int64(w.Body.Len())
			hits++
			if w.Code != http.StatusOK {
				err = fmt.Errorf("hit probe: status %d", w.Code)
			}
		}
	}) / float64(k))
	runtime.ReadMemStats(&mem1)
	if err != nil {
		return err
	}
	m["simsvc.response_bytes"] = float64(bytesOut) / float64(hits)
	m["simsvc.alloc_bytes_per_hit"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(hits)
	retained := 0
	for id := int64(1); id <= hits; id++ {
		if _, ok := hit.sched.Job(fmt.Sprintf("j-%06d", id)); ok {
			retained++
		}
	}
	m["simsvc.jobs_retained"] = float64(retained)
	m["telemetry.prometheus_us"] = us(repeatNs(in.reps, func() {
		if w := hit.get("/metrics"); w.Code != http.StatusOK {
			err = fmt.Errorf("GET /metrics: status %d", w.Code)
		}
	}))
	if e := hit.drain(); e != nil {
		return e
	}
	if err != nil {
		return err
	}

	// The handler and the job pipeline on misses.
	miss, err := newService("")
	if err != nil {
		return err
	}
	jobs := min(k, in.reps)
	rec := newRecorder()
	spanUs := map[string][]float64{}
	sleeps := 0
	for i := 0; i < jobs; i++ {
		v, n, err := missOp(miss, &specs[i], rec, i)
		if err != nil {
			return err
		}
		sleeps += n
		for _, sp := range v.Spans {
			spanUs[sp.Name] = append(spanUs[sp.Name], float64(sp.DurUS))
		}
		if !sameJSON(v.Result, payloads[i]) {
			return fmt.Errorf("miss probe: served result of spec %d differs from Execute", i)
		}
	}
	if err := miss.drain(); err != nil {
		return err
	}
	m["simsvc.handler_us.post_miss"] = us(fastTime(durationsOf(rec.spans, "simsvc.post")))
	m["simsvc.handler_us.get_poll"] = us(fastTime(durationsOf(rec.spans, "simsvc.get_poll")))
	m["simsvc.polls_per_job"] = float64(sleeps) / float64(jobs)
	for _, name := range []string{"queue-wait", "cache-lookup", "execute", "cache-store", "encode"} {
		m["simsvc.span_us."+name] = fastTime(spanUs[name])
	}

	// Execute against a bare New+Run of the same configuration, alternately.
	sp := specs[0]
	var bare *check.Digest
	pair := alternateNs(in.reps, func() {
		if _, e := simsvc.Execute(context.Background(), sp.norm, nil); e != nil {
			err = e
		}
	}, func() {
		n, e := network.New(specConfig(sp))
		if e != nil {
			err = e
			return
		}
		bare = check.AttachDigest(n)
		n.Run()
	})
	if err != nil {
		return err
	}
	var res simsvc.Result
	if err := json.Unmarshal(payloads[0], &res); err != nil {
		return err
	}
	if res.Summary.Digest != bare.String() {
		return fmt.Errorf("bare run digest %s differs from the served %s", bare, res.Summary.Digest)
	}
	m["simsvc.execute_ms"], m["simsvc.bare_run_ms"] = ms(pair[0]), ms(pair[1])
	m["simsvc.execute_overhead_share"] = pair[0]/pair[1] - 1
	return nil
}

// inproc is an http.RoundTripper that serves requests from in-process
// handlers keyed by URL host: the coordinator's backends without sockets.
type inproc map[string]http.Handler

func (t inproc) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("inproc: no backend %q", r.URL.Host)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Result(), nil
}

var hedgesRE = regexp.MustCompile(`(?m)^simring_hedges_total ([0-9.e+]+)$`)

func probeCluster(in layerInputs, m map[string]float64) error {
	specs := in.specs
	k := len(specs)
	names := []string{"http://b0", "http://b1"}
	ring, err := cluster.NewRing(names)
	if err != nil {
		return err
	}
	m["cluster.ring_owner_ns"] = repeatNs(in.reps, func() {
		for i := range specs {
			ring.Owner(specs[i].hash)
		}
	}) / float64(k)

	// The hit stream through a coordinator over two in-process backends,
	// against the same stream sent to one backend directly.
	backends := inproc{}
	var svcs []*service
	for _, name := range names {
		svc, err := newService("")
		if err != nil {
			return err
		}
		for i, sp := range specs {
			svc.store.Put(sp.hash, in.payloads[i])
		}
		svcs = append(svcs, svc)
		backends[name[len("http://"):]] = svc.srv
	}
	coord, err := cluster.New(cluster.Config{Backends: names,
		Client: &http.Client{Transport: backends},
		Logger: log.New(&countingWriter{}, "", log.LstdFlags)})
	if err != nil {
		return err
	}
	pair := alternateNs(in.reps, func() {
		for i := range specs {
			w := httptest.NewRecorder()
			coord.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(specs[i].body)))
			if w.Code != http.StatusOK {
				err = fmt.Errorf("coordinator: status %d: %s", w.Code, w.Body.Bytes())
			}
		}
	}, func() {
		for i := range specs {
			svcs[0].post(specs[i].body)
		}
	})
	var text bytes.Buffer
	coord.Registry().WritePrometheus(&text)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e := coord.Drain(ctx); e != nil {
		return e
	}
	for _, svc := range svcs {
		if e := svc.drain(); e != nil {
			return e
		}
	}
	if err != nil {
		return err
	}
	m["cluster.hop_added_us"] = us(pair[0]-pair[1]) / float64(k)
	m["cluster.hedges_fired"] = 0
	if g := hedgesRE.FindSubmatch(text.Bytes()); g != nil {
		m["cluster.hedges_fired"], _ = strconv.ParseFloat(string(g[1]), 64)
	}
	return nil
}
