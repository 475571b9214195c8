package network

import (
	"runtime"
	"testing"

	"repro/internal/protocol"
)

// newFootprint returns what New(cfg) allocates, in heap objects and bytes:
// whole-process counters around the call, the smallest of three readings.
// Cold, the candidate-table memo is emptied before each reading, so New
// misses and builds the table; warm, it holds the shape, so New shares it.
func newFootprint(t *testing.T, cfg Config, cold bool) (mallocs, bytes uint64) {
	t.Helper()
	mallocs, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ {
		if cold {
			resetCandTables()
		} else if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
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
// slab, so a byte added to a VC shows here thousands of times over. Each
// shape is pinned twice: warm, the candidate-table memo holds the shape (a
// hit, what every op after the first of its shape pays), and cold, it does
// not (a miss: the table's two allocations, TestCandidateTableFootprint's,
// and the memo entry). The pins only ever move down. Skipped under -race,
// whose allocator pads, and in -short mode.
func TestNetworkFootprint(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("skipping allocation measurement in -short mode and under -race")
	}
	defer resetCandTables()
	shapes := benchShapes()
	miss := DefaultConfig()
	miss.Radix, miss.Pattern, miss.Rate = []int{4, 4}, protocol.PAT271, 0.01
	miss.Warmup, miss.Measure, miss.MaxDrain = 500, 500, 0
	shapes["serve_miss"] = miss
	// Of these, the VCs are 1,536 x 64 B = 98,304 bytes in 384 slabs for PR
	// and DR, 3,072 x 64 B = 196,608 in 384 slabs for SA (8 VCs) and
	// 384 x 64 B = 24,576 in 96 slabs for serve_miss.
	type pin struct{ mallocs, bytes uint64 }
	pins := map[string]struct{ warm, cold pin }{
		"DR/PAT271":  {pin{2434, 266544}, pin{2441, 335400}},
		"DR/PAT721":  {pin{2434, 266544}, pin{2441, 335400}},
		"PR/PAT271":  {pin{2433, 262568}, pin{2439, 379936}},
		"PR/PAT721":  {pin{2433, 262568}, pin{2439, 379936}},
		"SA/PAT271":  {pin{2444, 387600}, pin{2453, 519336}},
		"SA/PAT721":  {pin{2444, 387600}, pin{2453, 519336}},
		"serve_miss": {pin{655, 68600}, pin{661, 76528}},
	}
	for name, want := range pins {
		for _, c := range []struct {
			memo string
			cold bool
			want pin
		}{{"warm", false, want.warm}, {"cold", true, want.cold}} {
			mallocs, bytes := newFootprint(t, shapes[name], c.cold)
			t.Logf("%s, %s: %d mallocs, %d bytes", name, c.memo, mallocs, bytes)
			if mallocs != c.want.mallocs || bytes != c.want.bytes {
				t.Errorf("%s, %s memo: New allocates %d objects, %d bytes; pinned %d, %d", name, c.memo, mallocs, bytes, c.want.mallocs, c.want.bytes)
			}
		}
	}
}
