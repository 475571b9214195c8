package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// update rewrites BENCHMARK.json from the program's tables:
// go test ./bench -run TestContract -update
var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

func TestQuantileAndFastQuartile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	// One slow block must not move the fast quartile.
	times := []float64{1.0, 1.01, 1.02, 1.03, 9}
	if got := fastTime(times); got != 1.01 {
		t.Errorf("fastTime = %v, want 1.01", got)
	}
}

// TestReferenceSpeed pins the end-to-end time estimator: every block's
// times are divided by how much slower than nominal that block's own kernel
// runs were, and the median across blocks is reported, so work that a loud
// host slows as much as the kernel reads the same in any mix of quiet and
// loud blocks.
func TestReferenceSpeed(t *testing.T) {
	mix := func(loud int, slowdown float64) pass {
		var p pass
		for b := 0; b < 10; b++ {
			f := 1.0
			if b < loud {
				f = slowdown
			}
			p.SegMs = append(p.SegMs, []float64{100 * f, 50 * f})
			p.SegP50Ms = append(p.SegP50Ms, []float64{10 * f, 5 * f})
			k := kernelNominalMs * f
			p.KernelMs = append(p.KernelMs, []float64{k, k, k})
		}
		p.cycles = 3000
		return p
	}
	for _, p := range []pass{mix(0, 1), mix(4, 1.5), mix(10, 1.5), mix(7, 0.8)} {
		if got := p.blockMs(); math.Abs(got-150) > 1e-9 {
			t.Errorf("blockMs = %v at host factor %v, want 150", got, p.hostFactor())
		}
		e := endToEndOf(p)
		if got := e["sim_cycles_per_s"]; math.Abs(got-20000) > 1e-6 {
			t.Errorf("sim_cycles_per_s = %v, want 20000", got)
		}
		if got := e["result_p50_ms"]; math.Abs(got-7.5) > 1e-9 {
			t.Errorf("result_p50_ms = %v, want 7.5 (the median of the segments' 10 and 5)", got)
		}
	}
	if got := mix(10, 1.5).hostFactor(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("hostFactor = %v, want 1.5", got)
	}
	if got := mix(4, 1.5).blockFactors(); len(got) != 10 || math.Abs(got[0]-1.5) > 1e-12 || math.Abs(got[9]-1) > 1e-12 {
		t.Errorf("blockFactors = %v, want four 1.5 then six 1", got)
	}
	// Work that the loud host slows more than the kernel (2x against 1.5x
	// in four blocks of ten) still reads its quiet time: the quiet blocks
	// are the majority and the median is theirs.
	p := mix(4, 1.5)
	for b := 0; b < 4; b++ {
		p.SegMs[b] = []float64{200, 100}
	}
	if got := p.blockMs(); math.Abs(got-150) > 1e-9 {
		t.Errorf("blockMs with four under-corrected blocks = %v, want 150", got)
	}
	if got, want := mix(0, 1).blockWallMs(), 150.0; len(got) != 10 || got[3] != want {
		t.Errorf("blockWallMs = %v, want ten times %v", got, want)
	}
}

func TestMoreBlocks(t *testing.T) {
	for _, c := range []struct {
		done            int
		elapsed, budget time.Duration
		blocks          int
		want            bool
	}{
		{0, 0, time.Second, 2, true}, {2, 0, time.Second, 2, false}, // a fixed count ignores the clock
		{1, 2 * time.Second, time.Second, 0, true}, // at least minBlocks
		{minBlocks, 2 * time.Second, time.Second, 0, false},
		{50, time.Second / 2, time.Second, 0, true},
	} {
		if got := more(c.done, c.elapsed, c.budget, c.blocks); got != c.want {
			t.Errorf("more(%d, %v, %v, %d) = %v, want %v", c.done, c.elapsed, c.budget, c.blocks, got, c.want)
		}
	}
}

func TestRound3(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{17546.9, 17500}, {17582, 17600}, {0.0012345, 0.00123}, {999.6, 1000},
		{-45678, -45700}, {0, 0}, {7, 7},
	} {
		if got := round3(c.in); math.Abs(got-c.want) > 1e-9*math.Abs(c.want) {
			t.Errorf("round3(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	a := engineConfigs(7, 0.012, 100, 200)
	b := engineConfigs(7, 0.012, 100, 200)
	c := engineConfigs(8, 0.012, 100, 200)
	if len(a) != 6 {
		t.Fatalf("engineConfigs returned %d configs, want 6", len(a))
	}
	seen := map[uint64]bool{}
	for i := range a {
		if a[i].Seed != b[i].Seed || a[i].Scheme != b[i].Scheme || a[i].Pattern != b[i].Pattern {
			t.Errorf("config %d differs between two calls with one seed", i)
		}
		if a[i].Seed == c[i].Seed {
			t.Errorf("config %d has the same seed under -seed 7 and 8", i)
		}
		if seen[a[i].Seed] {
			t.Errorf("config %d repeats a seed within the block", i)
		}
		seen[a[i].Seed] = true
	}

	s1, err := serveSpecs(7, 5, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := serveSpecs(7, 5, 100, 100)
	s3, _ := serveSpecs(8, 5, 100, 100)
	hashes := map[string]bool{}
	for i := range s1 {
		if !bytes.Equal(s1[i].body, s2[i].body) || s1[i].hash != s2[i].hash {
			t.Errorf("spec %d differs between two calls with one seed", i)
		}
		if s1[i].hash == s3[i].hash {
			t.Errorf("spec %d is the same under -seed 7 and 8", i)
		}
		hashes[s1[i].hash] = true
	}
	if len(hashes) != len(s1) {
		t.Errorf("%d distinct specs, want %d", len(hashes), len(s1))
	}

	d1, d2 := zipfDraw(7, 8, 500), zipfDraw(7, 8, 500)
	if !reflect.DeepEqual(d1, d2) {
		t.Error("zipfDraw differs between two calls with one seed")
	}
	if reflect.DeepEqual(d1, zipfDraw(8, 8, 500)) {
		t.Error("zipfDraw is the same under seeds 7 and 8")
	}
	counts := make([]int, 8)
	for _, k := range d1 {
		if k < 0 || k >= 8 {
			t.Fatalf("zipfDraw produced key %d outside [0,8)", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[7] {
		t.Errorf("zipfDraw is not skewed: key 0 drawn %d times, key 7 %d", counts[0], counts[7])
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100] with children [10,30] and [40,90]; the second has a child
	// [50,60] and one that overruns it, [80,120], which is clipped to [80,90].
	spans := []span{
		{Name: "op", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 30, Parent: 0},
		{Name: "b", StartNs: 40, EndNs: 90, Parent: 0},
		{Name: "c", StartNs: 50, EndNs: 60, Parent: 2},
		{Name: "c", StartNs: 80, EndNs: 120, Parent: 2},
	}
	if got, want := selfTimes(spans), []int64{30, 20, 30, 10, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	by := selfByName(spans)
	if by["op"] != 30 || by["c"] != 50 {
		t.Errorf("selfByName = %v", by)
	}
	if got := durationsOf(spans, "c"); !reflect.DeepEqual(got, []float64{10, 40}) {
		t.Errorf("durationsOf(c) = %v", got)
	}

	// A nil recorder records nothing and never panics.
	var rec *recorder
	rec.end(rec.begin("x", -1, 0))
	if at := rec.add("y", -1, 0, 5, 7); at != 5 {
		t.Errorf("nil recorder add returned %d, want 5", at)
	}
	live := newRecorder()
	i := live.begin("x", -1, 3)
	live.end(i)
	if end := live.add("y", i, 3, 100, 50); end != 150 || len(live.spans) != 2 || live.spans[1].Parent != i {
		t.Errorf("recorder spans = %+v (add returned %d)", live.spans, end)
	}
}

// TestContract pins BENCHMARK.json to the program's own tables and to the
// limits the benchmark contract sets.
func TestContract(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, contract(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, contract()) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; run go test ./bench -run TestContract -update")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q (unit %q) breaks the naming rules", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	setup := false
	for _, d := range endToEnd {
		check(d)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		setup = setup || d.name == "setup_s" && d.unit == "s" && d.better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range perLayer {
		check(d)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d per-layer, %d end-to-end, %d workloads: outside the contract's limits",
			len(perLayer), len(endToEnd), len(workloads))
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || len(w.why) == 0 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}

// TestQuickEndToEnd drives every workload through the whole harness on
// millisecond blocks, untraced and traced, so it cannot rot.
func TestQuickEndToEnd(t *testing.T) {
	dir := t.TempDir()
	o := options{seed: 3, sz: quickSizes, reps: 3, setups: 1, blocks: 2, outDir: dir}
	for _, trace := range []bool{false, true} {
		o.trace = trace
		results, err := runAll(workloads, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, attempted %d, failed %d",
					res.Workload, trace, res.Correct, res.Attempted, res.Failed)
			}
			if res.Meta.Blocks != 2 || len(res.Meta.Raw.SegMs) != 2 || !(res.Meta.HostFactor > 0) {
				t.Errorf("%s: ran %d blocks, want 2", res.Workload, res.Meta.Blocks)
			}
			for _, d := range endToEnd {
				if v := res.EndToEnd[d.name]; !(v > 0) {
					t.Errorf("%s: %s = %v, want > 0", res.Workload, d.name, v)
				}
			}
			if !trace {
				continue
			}
			for _, d := range perLayer {
				if v, ok := res.PerLayer[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: per-layer metric %s = %v (present %v)", res.Workload, d.name, v, ok)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%s: %d per-layer values measured, %d defined", res.Workload, len(res.PerLayer), len(perLayer))
			}
			var spans []span
			b, err := os.ReadFile(filepath.Join(dir, "trace-"+res.Workload+".json"))
			if err != nil || json.Unmarshal(b, &spans) != nil || len(spans) == 0 {
				t.Errorf("%s: no usable trace file (%v)", res.Workload, err)
			}
		}

		// The driver's line has exactly the four keys and, per mode, exactly
		// the metrics of that mode.
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(driverLine(results[:1], trace)), &line); err != nil {
			t.Fatal(err)
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || len(metrics) != len(defs) {
			t.Errorf("driver line has %d keys and %d metrics, want 4 and %d", len(line), len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("driver line lacks %s in %s", d.name, d.unit)
			}
		}
	}
}

// TestExactCountersRepeat runs one engine workload twice on one seed: the
// counters a speed-only change must preserve are identical.
func TestExactCountersRepeat(t *testing.T) {
	var got [2]simCounts
	for i := range got {
		r, err := workloads[0].setup(5, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		var p pass
		if err := p.runBlock(r, nil); err != nil {
			t.Fatal(err)
		}
		got[i] = r.counts()
	}
	if got[0] != got[1] || got[0].cycles == 0 || got[0].flits == 0 {
		t.Errorf("counters differ between identical runs: %+v vs %+v", got[0], got[1])
	}
}
