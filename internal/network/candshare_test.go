package network

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/schemes"
)

// TestCandShareByShape: networks of one shape read one table — the
// same slab, not an equal copy — whatever their pattern, and networks of
// different shapes (scheme, VC count, radix, wrap, bristling) never do.
func TestCandShareByShape(t *testing.T) {
	first := map[string]*Network{}
	for name, cfg := range benchShapes() {
		first[name] = mustNet(t, cfg)
	}
	for name, cfg := range benchShapes() {
		if n := mustNet(t, cfg); slabID(n.candSlab) != slabID(first[name].candSlab) {
			t.Errorf("%s: a second network of the shape built its own table", name)
		}
	}
	for _, kind := range []string{"PR", "DR", "SA"} {
		if slabID(first[kind+"/PAT271"].candSlab) != slabID(first[kind+"/PAT721"].candSlab) {
			t.Errorf("%s: PAT271 and PAT721 reach the same combos but read two tables", kind)
		}
	}

	torus := smallConfig(schemes.PR, protocol.PAT271, 4, 0)
	mesh := torus
	mesh.Mesh = true
	bristled := torus
	bristled.Bristling = 2
	vcs := torus
	vcs.VCs = 8
	radix := torus
	radix.Radix = []int{4, 2}
	distinct := map[string]*Network{
		"PR@4 8x8": first["PR/PAT271"], "DR@4 8x8": first["DR/PAT271"], "SA@8 8x8": first["SA/PAT271"],
		"PR@4 4x4": mustNet(t, torus), "PR@4 4x4 mesh": mustNet(t, mesh), "PR@4 4x4 bristling 2": mustNet(t, bristled),
		"PR@8 4x4": mustNet(t, vcs), "PR@4 4x2": mustNet(t, radix),
	}
	seen := map[*routing.PortVC]string{}
	for name, n := range distinct {
		id := slabID(n.candSlab)
		if other, ok := seen[id]; ok {
			t.Errorf("%s and %s read one table", name, other)
		}
		seen[id] = name
		checkTableIsFunction(t, n, nil)
	}
}

// TestCandShareKillLink: a link death gives the network a private
// table under its mask and touches neither the table its healthy sibling
// still reads nor the memo's, whether the memo held the shape at the time or
// not.
func TestCandShareKillLink(t *testing.T) {
	for _, kind := range []schemes.Kind{schemes.PR, schemes.DR, schemes.SA} {
		cfg := smallConfig(kind, protocol.PAT271, 8, 0) // TFAR, Duato, DOR
		kill := func(n *Network) {
			n.KillLink(3, 0)
			n.KillLink(3, 1)
			n.KillLink(5, 2)
		}

		a, sibling := mustNet(t, cfg), mustNet(t, cfg)
		shared := slabID(sibling.candSlab)
		_, held := candMemoState()
		kill(a)
		if _, now := candMemoState(); !slices.Equal(now, held) {
			t.Errorf("%v: killing a link changed the memo's tables from %v to %v", kind, held, now)
		}
		if slabID(a.candSlab) == shared {
			t.Errorf("%v: the network with dead links still reads the shared table", kind)
		}
		checkTableIsFunction(t, a, a.Health)
		checkTableIsFunction(t, sibling, nil)
		later := mustNet(t, cfg)
		if slabID(later.candSlab) != shared {
			t.Errorf("%v: the memo no longer holds the table the sibling reads", kind)
		}
		checkTableIsFunction(t, later, nil)

		// The memo emptied first: the masked build must not fill it.
		n := mustNet(t, cfg)
		resetCandTables()
		kill(n)
		if _, now := candMemoState(); len(now) != 0 {
			t.Errorf("%v: a table built under dead links went into the memo", kind)
		}
		checkTableIsFunction(t, mustNet(t, cfg), nil)
		if t.Failed() {
			t.Fatalf("under %v", kind)
		}
	}
}

// TestCandShareRestore: a healthy network restored from a
// faulted snapshot gets a private table under the snapshot's mask, and a
// faulted one restored from a healthy snapshot reads the shared table again.
func TestCandShareRestore(t *testing.T) {
	cfg := smallConfig(schemes.PR, protocol.PAT271, 4, 0.01)
	a := mustNet(t, cfg)
	a.RunCycles(200)
	healthy := a.Snapshot()
	a.KillLink(3, 0)
	a.RunCycles(100)
	faulted := a.Snapshot()

	b := mustNet(t, cfg)
	shared := slabID(b.candSlab)
	b.Restore(faulted)
	if b.Health == nil || slabID(b.candSlab) == shared {
		t.Fatal("restored from a faulted snapshot, the network reads the shared table")
	}
	checkTableIsFunction(t, b, b.Health)
	for name, n := range map[string]*Network{"restored twice": b, "faulted itself": a} {
		n.Restore(healthy)
		if n.Health != nil || slabID(n.candSlab) != shared {
			t.Errorf("%s, then restored from a healthy snapshot: the network keeps a private table", name)
		}
		checkTableIsFunction(t, n, nil)
	}
}

// TestCandShareConcurrent: networks of one shape built and stepped
// on several goroutines at once, some killing a link midway, all start on
// the one table and run as they would alone. Run it under -race -count=10:
// the shared rows are read concurrently and must never be written.
func TestCandShareConcurrent(t *testing.T) {
	resetCandTables() // so the first builds race each other too
	cfg := smallConfig(schemes.PR, protocol.PAT271, 4, 0.01)
	const workers = 6
	type result struct {
		slab      *routing.PortVC
		delivered int64
		state     uint64
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := New(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i].slab = slabID(n.candSlab)
			n.RunCycles(600)
			if i%2 == 1 {
				n.KillLink(3, 0)
			}
			n.RunCycles(600)
			h := ckpt.NewHasher(n.Clock.Now())
			n.Checkpoint(h)
			results[i].delivered, results[i].state = n.Stats.DeliveredMsgs, h.Sum()
		}(i)
	}
	wg.Wait()
	for i, r := range results[1:] {
		if r.slab != results[0].slab {
			t.Errorf("worker %d started on another table", i+1)
		}
	}
	for i := 2; i < workers; i++ {
		if r, want := results[i], results[i%2]; r.delivered != want.delivered || r.state != want.state {
			t.Errorf("worker %d ran differently from worker %d: %d deliveries, state hash %x; want %d, %x", i, i%2, r.delivered, r.state, want.delivered, want.state)
		}
	}
}

// TestCandShareEvictsLRU: the memo never holds more than
// MaxSystemSlots table slots, and to make room it drops the tables used
// longest ago, however recently they were built.
func TestCandShareEvictsLRU(t *testing.T) {
	resetCandTables()
	defer resetCandTables()
	pr := smallConfig(schemes.PR, protocol.PAT271, 4, 0)
	dr := smallConfig(schemes.DR, protocol.PAT271, 4, 0)
	small := smallConfig(schemes.PR, protocol.PAT271, 4, 0)
	small.Radix = []int{2, 2}

	a, b := mustNet(t, pr), mustNet(t, dr)
	mustNet(t, pr) // a hit: b is now the least recently used
	slots, slabs := candMemoState()
	if !slices.Equal(slabs, []*routing.PortVC{slabID(b.candSlab), slabID(a.candSlab)}) {
		t.Fatalf("memo holds %v, want DR's table then PR's", slabs)
	}
	fillCandMemo(MaxSystemSlots - slots) // the memo is now exactly full
	if full, _ := candMemoState(); full != MaxSystemSlots {
		t.Fatalf("memo holds %d slots, want %d", full, MaxSystemSlots)
	}

	c := mustNet(t, small) // smaller than b's: evicting b alone makes room
	slots, slabs = candMemoState()
	if want := []*routing.PortVC{slabID(a.candSlab), nil, slabID(c.candSlab)}; !slices.Equal(slabs, want) {
		t.Errorf("after a miss on a full memo it holds %v, want PR's table, the filler, the new one %v", slabs, want)
	}
	if slots > MaxSystemSlots {
		t.Errorf("memo holds %d slots, over the bound of %d", slots, MaxSystemSlots)
	}
	if again := mustNet(t, dr); slabID(again.candSlab) == slabID(b.candSlab) {
		t.Error("the evicted table was handed out again")
	}
}
