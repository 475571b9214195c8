package network

import (
	"runtime"
	"testing"

	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/schemes"
	"repro/internal/topology"
)

// benchShapes are the benchmark's six engine configurations (bench/inputs.go):
// {PR@4, DR@4, SA@8} x {PAT271, PAT721} on the default 8x8 torus.
func benchShapes() map[string]Config {
	shapes := map[string]Config{}
	for _, sc := range []struct {
		kind schemes.Kind
		vcs  int
	}{{schemes.PR, 4}, {schemes.DR, 4}, {schemes.SA, 8}} {
		for _, pat := range []*protocol.Pattern{protocol.PAT271, protocol.PAT721} {
			cfg := DefaultConfig()
			cfg.Scheme, cfg.VCs, cfg.Pattern = sc.kind, sc.vcs, pat
			shapes[sc.kind.String()+"/"+pat.Name] = cfg
		}
	}
	return shapes
}

// forEachLookup calls f with a packet for every input Candidates distinguishes
// — message type, plain / backoff / nack, destination endpoint — at every
// router. The packet is one scratch object, rewritten between calls.
func forEachLookup(n *Network, f func(r topology.NodeID, pkt *message.Packet)) {
	var m message.Message
	pkt := &message.Packet{Msg: &m}
	for m.Type = 0; m.Type < message.NumTypes; m.Type++ {
		for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}} {
			m.Backoff, m.Nack = flags[0], flags[1]
			for m.Dst = 0; m.Dst < n.Torus.Endpoints(); m.Dst++ {
				for r := range n.Routers {
					f(topology.NodeID(r), pkt)
				}
			}
		}
	}
}

// checkTableIsFunction compares every row of n's candidate table, element for
// element, with a fresh evaluation of the routing function under health h.
func checkTableIsFunction(t *testing.T, n *Network, h *routing.Health) {
	t.Helper()
	bad := 0
	forEachLookup(n, func(r topology.NodeID, pkt *message.Packet) {
		m := pkt.Msg
		backoff := m.Backoff || m.Nack
		dst := n.Torus.EndpointByID(m.Dst)
		want := routing.AppendCandidatesHealth(nil, h, n.Torus, n.Scheme.RoutingMode(m.Type, backoff),
			r, dst.Router, dst.Local, n.Scheme.VCSetFor(m.Type, backoff))
		got := n.Candidates(r, pkt)
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i] == want[i]
		}
		if !same {
			if bad++; bad <= 5 {
				t.Errorf("%v backoff=%v dst %d at router %d: table has %v, the routing function gives %v", m.Type, backoff, m.Dst, r, got, want)
			}
		}
	})
	if bad > 5 {
		t.Errorf("... and %d more rows", bad-5)
	}
}

// TestCandidateTableIsTheRoutingFunction: the table is nothing but
// routing.AppendCandidatesHealth tabulated. A slab with offsets can be wrong
// in ways a slice per row could not (a row starting one entry late, an append
// that reads its own prefix), so every row is compared on the benchmark's
// shapes, a mesh, a bristled torus, and tori with dead links — where
// the table must hold the function of the health it was built under until
// InvalidateRouting, and of the current health after it.
func TestCandidateTableIsTheRoutingFunction(t *testing.T) {
	shapes := benchShapes()
	mesh := smallConfig(schemes.SA, protocol.PAT271, 4, 0)
	mesh.Mesh = true
	shapes["mesh"] = mesh
	bristled := smallConfig(schemes.DR, protocol.PAT271, 8, 0) // Duato: 2 escape + 2 adaptive VCs a class
	bristled.Radix, bristled.Bristling = []int{2, 4}, 2
	shapes["bristled"] = bristled
	for name, cfg := range shapes {
		checkTableIsFunction(t, mustNet(t, cfg), nil)
		if t.Failed() {
			t.Fatalf("shape %s", name)
		}
	}

	// Dead links: router 3 loses both links of its first dimension, so some
	// pairs have every minimal first hop dead (TFAR's detour fallback) and
	// some have no route at all (empty rows); one more link elsewhere.
	for _, kind := range []schemes.Kind{schemes.PR, schemes.DR, schemes.SA} {
		n := mustNet(t, smallConfig(kind, protocol.PAT271, 8, 0)) // TFAR, Duato, DOR
		n.Health = routing.NewHealth(n.Torus)
		n.Health.KillLink(3, 0)
		n.Health.KillLink(3, 1)
		n.Health.KillLink(5, 2)
		checkTableIsFunction(t, n, nil) // as built: InvalidateRouting has not run
		n.InvalidateRouting()
		checkTableIsFunction(t, n, n.Health)
		empty := 0
		for i := range n.candOff[1:] {
			if n.candOff[i] == n.candOff[i+1] {
				empty++
			}
		}
		if empty == 0 {
			t.Errorf("%v: the dead links leave no row empty; the no-route case is not covered", kind)
		}
		if t.Failed() {
			t.Fatalf("dead links under %v", kind)
		}
	}
}

// TestCandidateRowsDoNotAlias: rows are adjacent in one slab, so a caller
// that appends to the row it was handed must get a copy, not the first entry
// of the next row.
func TestCandidateRowsDoNotAlias(t *testing.T) {
	n := mustNet(t, smallConfig(schemes.PR, protocol.PAT271, 4, 0))
	const dst = 5
	pkt := &message.Packet{Msg: &message.Message{Type: message.M1, Dst: dst}}
	row, next := n.Candidates(0, pkt), n.Candidates(1, pkt)
	if len(row) == 0 || len(next) == 0 {
		t.Fatal("picked an empty row")
	}
	if i := dst * len(n.Routers); &n.candSlab[n.candOff[i+1]] != &next[0] { // PR has the one combo
		t.Fatal("router 1's row does not start where router 0's ends; pick another pair")
	}
	was := next[0]
	_ = append(row, routing.PortVC{Port: 255, VC: 255, Escape: true})
	if next[0] != was {
		t.Fatalf("append to router 0's row overwrote router 1's first candidate: %v, was %v", next[0], was)
	}
}

// TestCandidateTableFootprint pins what the table costs, per benchmark
// configuration: two allocations (slab and offsets), their exact sizes, and
// that New pays them — a network fresh from New answers every lookup without
// allocating, and stepping it leaves both arrays where they are.
func TestCandidateTableFootprint(t *testing.T) {
	const entry, offset = 3, 4 // bytes: a routing.PortVC, a uint32
	pins := map[schemes.Kind]struct{ rows, entries, slabCap int }{
		// One TFAR combo: 4 VCs on 1 or 2 minimal directions, room for 2.
		schemes.PR: {4096, 28928, 32512},
		// Two DOR combos (request and reply class) of 2 escape VCs: one hop, or
		// both VCs on the ejection port. The bound is exact.
		schemes.DR: {8192, 8320, 8320},
		// Four DOR combos, one per message type.
		schemes.SA: {16384, 16640, 16640},
	}
	for name, cfg := range benchShapes() { // the pattern does not reach the table
		want := pins[cfg.Scheme]
		n := mustNet(t, cfg)
		if got := len(n.candOff) - 1; got != want.rows {
			t.Errorf("%s: %d rows, pinned %d", name, got, want.rows)
		}
		if len(n.candSlab) != want.entries || cap(n.candSlab) != want.slabCap {
			t.Errorf("%s: slab holds %d entries in room for %d, pinned %d in %d", name, len(n.candSlab), cap(n.candSlab), want.entries, want.slabCap)
		}
		asked := uint64(cap(n.candSlab)*entry + cap(n.candOff)*offset)

		// The build itself, measured as TestNewDoesNotScaleWithServiceTime
		// measures New: whole-process counters, smallest of three readings.
		build := func() (mallocs, bytes uint64) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			n.buildCandTable()
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
		}
		mallocs, bytes := build()
		for i := 0; i < 2; i++ {
			m, b := build()
			mallocs, bytes = min(mallocs, m), min(bytes, b)
		}
		t.Logf("%s: %d mallocs, %d bytes asked for, %d allocated", name, mallocs, asked, bytes)
		if mallocs != 2 {
			t.Errorf("%s: building the table takes %d allocations, pinned 2 (slab, offsets)", name, mallocs)
		}
		// The allocator rounds each of the two up to a size class or a page.
		if bytes < asked || bytes > asked+2*8192 {
			t.Errorf("%s: building the table allocates %d bytes for the %d it asks for", name, bytes, asked)
		}

		n = mustNet(t, cfg)
		slab, off := &n.candSlab[0], &n.candOff[0]
		lookups := 0
		if a := testing.AllocsPerRun(1, func() {
			forEachLookup(n, func(r topology.NodeID, pkt *message.Packet) { lookups += len(n.Candidates(r, pkt)) })
		}); a > 2 { // forEachLookup's scratch message and packet
			t.Errorf("%s: looking up every row of a new network allocates %.0f times", name, a)
		}
		if lookups == 0 {
			t.Errorf("%s: every row is empty", name)
		}
		n.RunCycles(200)
		if slab != &n.candSlab[0] || off != &n.candOff[0] {
			t.Errorf("%s: stepping rebuilt the candidate table", name)
		}
	}
}
