package network

import (
	"runtime"
	"testing"

	"repro/internal/protocol"
)

// newFootprint returns what New(cfg) allocates, in heap objects and bytes:
// whole-process counters around the call, the smallest of three readings.
func newFootprint(t *testing.T, cfg Config) (mallocs, bytes uint64) {
	t.Helper()
	mallocs, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		n, err := New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(n)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
}

// TestNetworkFootprint pins, exactly, what New allocates for the benchmark's
// six engine configurations and for the serve_miss spec (a 4x4 PR/PAT271
// torus at rate 0.01, built once per served job): every engine op and every
// job pays it before the first cycle. Every channel lays its VCs out in one
// slab, so a byte added to a VC shows here thousands of times over. The pins
// only ever move down. Skipped under -race, whose allocator pads, and in
// -short mode.
func TestNetworkFootprint(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("skipping allocation measurement in -short mode and under -race")
	}
	shapes := benchShapes()
	miss := DefaultConfig()
	miss.Radix, miss.Pattern, miss.Rate = []int{4, 4}, protocol.PAT271, 0.01
	miss.Warmup, miss.Measure, miss.MaxDrain = 500, 500, 0
	shapes["serve_miss"] = miss
	// Of these, the VCs are 1,536 x 64 B = 98,304 bytes in 384 slabs for PR
	// and DR, 3,072 x 64 B = 196,608 in 384 slabs for SA (8 VCs) and
	// 384 x 64 B = 24,576 in 96 slabs for serve_miss.
	pins := map[string]struct{ mallocs, bytes uint64 }{
		"DR/PAT271":  {2943, 342928},
		"DR/PAT721":  {2943, 342928},
		"PR/PAT271":  {2942, 387464},
		"PR/PAT721":  {2942, 387464},
		"SA/PAT271":  {2953, 526832},
		"SA/PAT721":  {2953, 526832},
		"serve_miss": {780, 77912},
	}
	for name, want := range pins {
		mallocs, bytes := newFootprint(t, shapes[name])
		t.Logf("%s: %d mallocs, %d bytes", name, mallocs, bytes)
		if mallocs != want.mallocs || bytes != want.bytes {
			t.Errorf("%s: New allocates %d objects, %d bytes; pinned %d, %d", name, mallocs, bytes, want.mallocs, want.bytes)
		}
	}
}
