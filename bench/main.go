// Command bench is the repository benchmark: four single-threaded,
// block-repeated workloads (a loaded engine, an idle-skipping engine, a
// cache hit and a cache miss), five end-to-end metrics on each, and a traced
// pass that times every layer from outside. See README.md in this directory
// for the metric dictionary and BENCHMARK.json at the repository root for
// the contract.
//
//	go build -o bench/out/bench ./bench
//	bench/out/bench -workload all -seed 1            # end-to-end metrics
//	bench/out/bench -workload all -seed 1 -trace 1   # per-layer metrics
//	bench/out/bench -selfcheck                       # A/A run against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/network"
)

// runner is one workload instance: fixed inputs and the block that runs
// them. A block is segments() segments of segOps() ops each; prepare and
// finish are untimed, runSegment is timed and fills lat with one latency per
// op of the segment.
type runner interface {
	segments() int
	segOps() int
	prepare() error
	runSegment(s int, rec *recorder, lat []time.Duration) (cycles int64, err error)
	finish() error
	// verify runs the workload's remaining output checks.
	verify() (attempted, failed int, err error)
	// failedOps counts ops whose inline or cross-block check failed.
	failedOps() int
	// counts are the exact simulation counters of one block.
	counts() simCounts
	// probeConfig is the engine configuration the per-layer probes run on.
	probeConfig() network.Config
}

func opsPerBlock(r runner) int { return r.segments() * r.segOps() }

type workload struct {
	name, why string
	setup     func(seed uint64, sz sizes) (runner, error)
}

var workloads = []workload{
	{"engine_loaded", "8x8 torus at the saturation knee (rate 0.012): over 90% of routers active every cycle, so arbitration, routing and recovery do the work and idle-skipping none",
		func(seed uint64, sz sizes) (runner, error) {
			return newEngineRunner(engineConfigs(seed, 0.012, sz.loadedWarmup, sz.loadedMeasure)), nil
		}},
	{"engine_sparse", "the same six configurations at rate 0.001, where applications spend over 90% of their run: the active-set sweep and skip-ahead do the work and arbitration little",
		func(seed uint64, sz sizes) (runner, error) {
			return newEngineRunner(engineConfigs(seed, 0.001, sz.sparseWarmup, sz.sparseMeasure)), nil
		}},
	{"serve_hot", "Zipf-repeated POSTs that all hit the result cache: decode, normalise, hash, Store.Get, job bookkeeping and encode are all of the work, the engine none",
		func(seed uint64, sz sizes) (runner, error) { return newHotRunner(seed, sz) }},
	{"serve_miss", "distinct specs on an empty cache, each submitted, awaited and fetched: per-job fixed costs around a small simulation, bypassing everything serve_hot exercises but the handler shell",
		func(seed uint64, sz sizes) (runner, error) { return newMissRunner(seed, sz) }},
}

// pass is the raw result of a sequence of blocks, as measured.
type pass struct {
	SegMs    [][]float64 `json:"seg_ms"`        // [block][segment] summed op latency
	SegP50Ms [][]float64 `json:"seg_p50_ms"`    // [block][segment] median op latency
	KernelMs [][]float64 `json:"ref_kernel_ms"` // [block][segment+1] kernel before/after each segment
	cycles   int64       // simulated cycles per block
	alloc    uint64      // TotalAlloc over the timed blocks
	ops      int
	liveHeap uint64 // HeapAlloc after GC at the end of the last block
}

// runBlock appends one block of r to the pass: the reference kernel, then
// each segment followed by the kernel again, then the block's output checks.
// Every kernel run is preceded by a garbage collection (settledKernel), so
// every segment of every block starts from a collected heap.
func (p *pass) runBlock(r runner, rec *recorder) error {
	if err := r.prepare(); err != nil {
		return err
	}
	lat := make([]time.Duration, r.segOps())
	segMs := make([]float64, r.segments())
	segP50 := make([]float64, r.segments())
	var m0, m1 runtime.MemStats
	kernel := []float64{settledKernel()}
	runtime.ReadMemStats(&m0)
	p.cycles = 0
	for s := range segMs {
		cycles, err := r.runSegment(s, rec, lat)
		if err != nil {
			return err
		}
		kernel = append(kernel, settledKernel())
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		segMs[s], segP50[s] = ms(float64(sum)), medianMs(lat)
		p.cycles += cycles
	}
	runtime.ReadMemStats(&m1)
	p.SegMs, p.SegP50Ms, p.KernelMs = append(p.SegMs, segMs), append(p.SegP50Ms, segP50), append(p.KernelMs, kernel)
	p.alloc += m1.TotalAlloc - m0.TotalAlloc
	p.ops += opsPerBlock(r)
	p.liveHeap = m1.HeapAlloc
	return r.finish()
}

// blockWallMs is the measured time of every block: the sum of its segments.
func (p pass) blockWallMs() []float64 {
	out := make([]float64, len(p.SegMs))
	for b, row := range p.SegMs {
		for _, v := range row {
			out[b] += v
		}
	}
	return out
}

// blockFactors is, per block, how much slower than nominal the host ran the
// reference kernel in that block: the mean of the block's kernel runs over
// kernelNominalMs.
func (p pass) blockFactors() []float64 {
	out := make([]float64, len(p.KernelMs))
	for b, row := range p.KernelMs {
		for _, k := range row {
			out[b] += k
		}
		out[b] /= float64(len(row)) * kernelNominalMs
	}
	return out
}

// hostFactor is the pass's median block factor: what the tables print and
// what puts span times at reference speed.
func (p pass) hostFactor() float64 { return quantile(p.blockFactors(), 0.5) }

// atReference reduces x[block][segment] to one time per segment at
// reference host speed: every block's value divided by that block's factor,
// then the median across blocks. Dividing block by block pairs the work
// with kernel runs from the same second, whichever way the host changed
// during the run; the median rather than the fast quartile because a
// kernel run is only a sample of its block, so the quotient errs both ways.
func (p pass) atReference(x [][]float64) []float64 {
	f := p.blockFactors()
	out := make([]float64, len(x[0]))
	col := make([]float64, len(x))
	for s := range out {
		for b := range x {
			col[b] = x[b][s] / f[b]
		}
		out[s] = quantile(col, 0.5)
	}
	return out
}

// blockMs is the time of one block at reference speed: the sum of its
// segments' times.
func (p pass) blockMs() float64 {
	var sum float64
	for _, v := range p.atReference(p.SegMs) {
		sum += v
	}
	return sum
}

// endToEndOf reduces a pass to the end-to-end metrics (setup_s is added by
// the caller).
func endToEndOf(p pass) map[string]float64 {
	return map[string]float64{
		"sim_cycles_per_s": float64(p.cycles) / (p.blockMs() / 1e3),
		"result_p50_ms":    quantile(p.atReference(p.SegP50Ms), 0.5),
		"alloc_kb_per_op":  float64(p.alloc) / float64(p.ops) / 1024,
		"live_heap_mb":     float64(p.liveHeap) / (1 << 20),
	}
}

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Meta      meta               `json:"meta"`
}

// meta is what is needed to diagnose a noisy set of runs after the fact.
type meta struct {
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	LoadAvg    string    `json:"loadavg_at_start"`
	Commit     string    `json:"commit"`
	Seed       uint64    `json:"seed"`
	Blocks     int       `json:"blocks"`
	OpsPerBlk  int       `json:"ops_per_block"`
	HostFactor float64   `json:"host_factor"`    // the measured pass's median block factor
	BuildMs    []float64 `json:"setup_build_ms"` // input generation and precomputation, per set-up, as measured
	Warmup     pass      `json:"setup_warmup"`   // the warm-up block of every set-up
	Raw        pass      `json:"raw"`            // the measured pass, per block and segment
}

func newMeta(seed uint64) meta {
	m := meta{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown", Seed: seed}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		m.LoadAvg = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

type options struct {
	seed    uint64
	seconds float64
	blocks  int // fixed block count (-quick and tests); 0 fills seconds, at least minBlocks
	trace   bool
	sz      sizes
	reps    int
	setups  int
	outDir  string
}

// minBlocks is the fewest blocks a pass measures, however short --seconds.
const minBlocks = 4

// setUp builds a runner and runs its warm-up block: everything between
// workload start and the first timed block. It returns the build time as
// measured and the warm-up block, whose first kernel run precedes the build.
func setUp(w workload, o options) (runner, float64, pass, error) {
	before := settledKernel()
	t0 := time.Now()
	r, err := w.setup(o.seed, o.sz)
	build := ms(float64(time.Since(t0)))
	if err != nil {
		return nil, 0, pass{}, err
	}
	var p pass
	if err := p.runBlock(r, nil); err != nil {
		return nil, 0, p, err
	}
	p.KernelMs[0] = append([]float64{before}, p.KernelMs[0]...)
	return r, build, p, nil
}

// runWorkload measures one workload. Without tracing: set-up (repeated,
// median reported), the timed blocks, the output checks. With tracing: one
// set-up, a short untraced pass interleaved block by block with a traced
// one, the per-layer probes, and the checks.
func runWorkload(w workload, o options) (result, error) {
	res := result{Workload: w.name, Meta: newMeta(o.seed)}
	setups := o.setups
	if o.trace {
		setups = 1
	}
	var r runner
	var setupMs []float64
	warm := &res.Meta.Warmup
	for i := 0; i < setups; i++ {
		var build float64
		var p pass
		var err error
		if r, build, p, err = setUp(w, o); err != nil {
			return res, err
		}
		res.Meta.BuildMs = append(res.Meta.BuildMs, build)
		warm.SegMs, warm.KernelMs = append(warm.SegMs, p.SegMs...), append(warm.KernelMs, p.KernelMs...)
		setupMs = append(setupMs, (build+p.blockWallMs()[0])/p.hostFactor())
	}

	// The timed blocks fill --seconds of wall time, kernel runs included. A
	// traced run alternates untraced and traced blocks within 70% of it, so
	// both passes see the same host, and leaves the rest to the probes.
	budget := time.Duration(o.seconds * float64(time.Second))
	var p, traced pass
	var rec *recorder
	if o.trace {
		budget, rec = budget*70/100, newRecorder()
	}
	for start := time.Now(); more(len(p.SegMs), time.Since(start), budget, o.blocks); {
		if err := p.runBlock(r, nil); err != nil {
			return res, err
		}
		if o.trace {
			if err := traced.runBlock(r, rec); err != nil {
				return res, err
			}
		}
	}
	res.Meta.Blocks, res.Meta.OpsPerBlk, res.Meta.Raw = len(p.SegMs), opsPerBlock(r), p
	res.Meta.HostFactor = p.hostFactor()
	res.EndToEnd = endToEndOf(p)
	res.EndToEnd["setup_s"] = quantile(setupMs, 0.5) / 1e3
	res.Attempted = p.ops + traced.ops + opsPerBlock(r)*setups

	if o.trace {
		res.PerLayer = map[string]float64{}
		traceMetrics(res.PerLayer, r, p, traced, rec.spans)
		if err := writeJSON(o.outDir, "trace-"+w.name+".json", rec.spans); err != nil {
			return res, err
		}
		if err := runProbes(r, o, res.PerLayer); err != nil {
			return res, err
		}
	}

	va, vf, err := r.verify()
	if err != nil {
		return res, err
	}
	res.Attempted += va
	res.Failed = vf + r.failedOps()
	res.Correct = res.Failed == 0
	return res, writeJSON(o.outDir, "run-"+w.name+".json", res)
}

// more reports whether a pass that has run `done` blocks in `elapsed` should
// run another: exactly `blocks` when positive, otherwise until the budget is
// spent, and at least minBlocks.
func more(done int, elapsed, budget time.Duration, blocks int) bool {
	if blocks > 0 {
		return done < blocks
	}
	return done < minBlocks || elapsed < budget
}

// traceMetrics derives the metrics that come from the traced pass: span
// self times per op, the tracing overhead, the per-scheme run times, the
// block spread and the exact simulation counters.
func traceMetrics(m map[string]float64, r runner, untraced, traced pass, spans []span) {
	// Span times go to reference speed by the traced pass's host factor;
	// the spans in the trace file stay as measured.
	scale := 1 / traced.hostFactor()

	self := selfByName(spans)
	ops := durationsOf(spans, "op")
	var opNs float64
	for _, d := range ops {
		opNs += d
	}
	for _, name := range spanNames {
		m["trace.self_us."+name] = us(float64(self[name])) / float64(len(ops)) * scale
	}
	// The op's own self time and the unexplained part of the wait are the
	// harness; everything else is a named layer.
	m["trace.accounted_share"] = 1 - float64(self["op"]+self["harness.wait"])/opNs
	m["trace.overhead_share"] = traced.blockMs()/untraced.blockMs() - 1

	// Only engine ops have network.run spans, and an engine op's index is
	// its configuration's: two per scheme.
	for i, scheme := range []string{"pr", "dr", "sa"} {
		var runs []float64
		for _, s := range spans {
			if s.Name == "network.run" && s.Op/2 == i {
				runs = append(runs, float64(s.EndNs-s.StartNs))
			}
		}
		m["network.run_ms."+scheme] = ms(quantile(runs, 0.5)) * scale
	}

	// What the host did to the blocks: their measured times against the
	// fast quartile of those times, and the kernel's own median time.
	wall := untraced.blockWallMs()
	fast := fastTime(wall)
	m["host.block_spread_p50"] = quantile(wall, 0.5)/fast - 1
	m["host.block_spread_p90"] = quantile(wall, 0.9)/fast - 1
	m["host.ref_kernel_ms"] = quantile(append(flatten(untraced.KernelMs), flatten(traced.KernelMs)...), 0.5)

	c := r.counts()
	m["sim.cycles"] = float64(c.cycles)
	m["sim.delivered_flits"] = float64(c.flits)
	m["sim.detect_events"] = float64(c.detects)
	m["sim.deflections"] = float64(c.deflects)
	m["sim.rescues"] = float64(c.rescues)
	m["sim.cwg_deadlocks"] = float64(c.deadlocks)
	m["sim.digest48"] = float64(c.digest & (1<<48 - 1))
}

// runProbes runs the per-layer probes on the runner's engine configuration
// and on the seed's serving specs.
func runProbes(r runner, o options, m map[string]float64) error {
	specs, err := serveSpecs(o.seed, o.sz.hotKeys, o.sz.serveWarmup, o.sz.serveMeasure)
	if err != nil {
		return err
	}
	payloads, err := precompute(specs)
	if err != nil {
		return err
	}
	return probeLayers(layerInputs{cfg: r.probeConfig(), specs: specs, payloads: payloads,
		reps: o.reps, chunk: o.sz.stepChunk, tmpDir: o.outDir}, m)
}

// driverLine is the last line of standard output: exactly the keys the
// benchmark contract names. With several workloads the metric names carry
// the workload as a prefix.
func driverLine(results []result, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		defs, vals := endToEnd, res.EndToEnd
		if trace {
			defs, vals = perLayer, res.PerLayer
		}
		for _, d := range defs {
			name := d.name
			if len(results) > 1 {
				name = res.Workload + "." + name
			}
			out.Metrics[name] = value{vals[d.name], d.unit}
		}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// printTable prints every metric by name with unit and direction.
func printTable(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.name]
		if d.rounded {
			v = round3(v)
		}
		fmt.Printf("  %-34s %16s %-6s %s is better\n", d.name, formatValue(v), d.unit, d.better)
	}
}

// formatValue prints six significant digits, and large whole numbers (the
// exact counters) in full.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) >= 1e6 && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

func printResult(res result) {
	fmt.Printf("%s: %d blocks x %d ops, attempted %d, failed %d, load %s\n", res.Workload,
		res.Meta.Blocks, res.Meta.OpsPerBlk, res.Attempted, res.Failed, res.Meta.LoadAvg)
	fmt.Printf("  (times are at reference host speed: in the median block the reference kernel took %.3f x its nominal time)\n", res.Meta.HostFactor)
	printTable(endToEnd, res.EndToEnd)
	if res.PerLayer != nil {
		fmt.Println("  (end-to-end values above come from the short untraced pass of a traced run)")
		printTable(perLayer, res.PerLayer)
	}
}

func selected(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func runAll(ws []workload, o options) ([]result, error) {
	var out []result
	for _, w := range ws {
		res, err := runWorkload(w, o)
		if err != nil {
			return out, fmt.Errorf("%s: %w", w.name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// selfcheck runs the suite twice on the same code and compares every
// end-to-end metric with its bound.
func selfcheck(ws []workload, o options) bool {
	var sets [2][]result
	for i := range sets {
		var err error
		if sets[i], err = runAll(ws, o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return false
		}
	}
	ok := true
	fmt.Printf("%-14s %-18s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		ok = ok && a.Correct && b.Correct
		for _, d := range endToEnd {
			va, vb := a.EndToEnd[d.name], b.EndToEnd[d.name]
			if d.rounded {
				va, vb = round3(va), round3(vb)
			}
			diff := (vb - va) / va
			if d.better == "higher" {
				diff = -diff
			}
			verdict := ""
			if diff > d.bound || -diff > d.bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-14s %-18s %14.6g %14.6g %+7.2f%% %5.0f%%%s\n",
				a.Workload, d.name, va, vb, 100*diff, 100*d.bound, verdict)
		}
	}
	return ok
}

func main() {
	// One thread generates load and runs the program: the numbers are CPU
	// costs of one core, not a scaling measurement.
	runtime.GOMAXPROCS(1)
	var (
		name    = flag.String("workload", "all", "workload to run: all, engine_loaded, engine_sparse, serve_hot or serve_miss")
		seed    = flag.Uint64("seed", 1, "input seed (spec seeds and the Zipf draw); use 2 as the held-out seed")
		seconds = flag.Float64("seconds", runSeconds, "measuring time per run: blocks repeat until this much wall time has elapsed")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and the per-layer probes instead of the full measurement")
		quick   = flag.Bool("quick", false, "two tiny blocks per workload: exercises the whole harness in seconds")
		check   = flag.Bool("selfcheck", false, "run the suite twice and fail if any end-to-end metric moves by more than its bound")
		outDir  = flag.String("out", "bench/out", "directory for run-<workload>.json and trace-<workload>.json")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0,
		sz: fullSizes, reps: 24, setups: 3, outDir: *outDir}
	if *quick {
		o.sz, o.reps, o.setups, o.blocks = quickSizes, 3, 1, 2
	}
	ws, err := selected(*name)
	if err == nil && flag.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if err == nil && !(*seconds > 0) {
		err = fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *check {
		if !selfcheck(ws, o) {
			os.Exit(1)
		}
		return
	}
	results, err := runAll(ws, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	failed := false
	for _, res := range results {
		printResult(res)
		failed = failed || !res.Correct
	}
	fmt.Println(driverLine(results, o.trace))
	if failed {
		os.Exit(1)
	}
}
