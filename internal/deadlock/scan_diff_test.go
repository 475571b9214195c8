// Differential test for the whole CWG scan. When ScanAt was rewritten to be
// allocation-free and proportional to the blocked subgraph, the previous
// implementation — rebuild the full graph, reverse BFS from every unblocked
// vertex, republish every VC flag, BFS the components — was kept here
// verbatim as the control (same precedent as legacyEdges in
// internal/check/waitedges_diff_test.go). Do not "fix" it to match
// production: if the two disagree, production is what changed. The one cut
// is the scan's detection-latency bookkeeping, deleted from both when the
// scan stopped being a recovery trigger.
package deadlock_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/schemes"
	"repro/internal/topology"
)

// refDetector carries the fields the old Detector kept.
type refDetector struct {
	host     deadlock.Host
	layout   deadlock.Layout
	prevLock []bool

	Scans          int64
	Deadlocks      int64
	LastDeadlocked int

	Forensics bool
	lastChain []obs.WaitResource
}

func newRefDetector(h deadlock.Host) *refDetector {
	d := &refDetector{host: h, layout: deadlock.LayoutOf(h)}
	d.prevLock = make([]bool, d.layout.Total)
	return d
}

func (d *refDetector) vcVertex(ch *router.Channel, idx int) int {
	return ch.ID*d.layout.VCsPer + idx
}

func consumerRouter(ch *router.Channel) topology.NodeID {
	if ch.Kind == router.KindLink {
		return ch.Dst
	}
	return ch.Src
}

// ScanAt is the pre-PR-14 Detector.ScanAt, body verbatim but for the
// detection-latency block.
func (d *refDetector) ScanAt(now int64) (deadlockedResources, newKnots int) {
	h := d.host
	l := d.layout

	// Classification is the shared wait-edge derivation (waitedges.go),
	// reused verbatim by the probe engine and the independent rebuild.
	blocked := make([]bool, l.Total)
	// adjacency: wait-for edges u -> v (u waits for v).
	adj := make([][]int32, l.Total)
	deadlock.WaitEdges(h, l, blocked, func(u, v int) { adj[u] = append(adj[u], int32(v)) })

	// --- knot computation ---
	// A blocked resource escapes the knot if some wait-for path reaches a
	// non-blocked resource: one that progresses this cycle, but also any
	// resource that is simply not stuck (an empty VC that an in-flight
	// worm will advance into, an idle queue, ...). Only waiting chains
	// confined entirely to blocked resources form a knot. Reverse BFS from
	// all non-blocked vertices over reversed edges.
	radj := make([][]int32, l.Total)
	for u := range adj {
		for _, v := range adj[u] {
			radj[v] = append(radj[v], int32(u))
		}
	}
	reach := make([]bool, l.Total)
	queue := make([]int32, 0, l.Total)
	for v := 0; v < l.Total; v++ {
		if !blocked[v] {
			reach[v] = true
			queue = append(queue, int32(v))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range radj[v] {
			if !reach[u] {
				reach[u] = true
				queue = append(queue, u)
			}
		}
	}

	locked := make([]bool, l.Total)
	for v := 0; v < l.Total; v++ {
		if blocked[v] && !reach[v] {
			locked[v] = true
			deadlockedResources++
		}
	}

	// Publish knot membership on the VCs themselves so the progressive
	// recovery engine can target genuinely deadlocked packets.
	for _, ch := range h.AllChannels() {
		for _, vc := range ch.VCs {
			vc.Knotted = locked[d.vcVertex(ch, int(vc.Index))]
		}
	}

	// Count newly formed knot components: weakly connected components of
	// the deadlocked subgraph containing at least one resource that was
	// not deadlocked in the previous scan.
	visited := make([]bool, l.Total)
	und := make([][]int32, l.Total)
	for u := range adj {
		if !locked[u] {
			continue
		}
		for _, v := range adj[u] {
			if locked[v] {
				und[u] = append(und[u], v)
				und[v] = append(und[v], int32(u))
			}
		}
	}
	for v := 0; v < l.Total; v++ {
		if !locked[v] || visited[v] {
			continue
		}
		// BFS this component.
		comp := []int32{int32(v)}
		visited[v] = true
		fresh := !d.prevLock[v]
		for i := 0; i < len(comp); i++ {
			for _, w := range und[comp[i]] {
				if !visited[w] {
					visited[w] = true
					comp = append(comp, w)
					if !d.prevLock[w] {
						fresh = true
					}
				}
			}
		}
		if fresh {
			newKnots++
		}
	}

	d.prevLock = locked
	d.Scans++
	d.Deadlocks += int64(newKnots)
	d.LastDeadlocked = deadlockedResources
	if d.Forensics {
		d.lastChain = d.buildChain(now, locked, adj)
	}
	return deadlockedResources, newKnots
}

// buildChain is the pre-PR-14 Detector.buildChain, body verbatim.
func (d *refDetector) buildChain(now int64, locked []bool, adj [][]int32) []obs.WaitResource {
	idx := make(map[int]int)
	for v := 0; v < d.layout.Total; v++ {
		if locked[v] {
			idx[v] = len(idx)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	h := d.host
	tor := h.Topology()
	chain := make([]obs.WaitResource, len(idx))
	fill := func(v int, r obs.WaitResource) {
		for _, w := range adj[v] {
			if j, ok := idx[int(w)]; ok {
				r.WaitsFor = append(r.WaitsFor, j)
			}
		}
		chain[idx[v]] = r
	}
	for _, ch := range h.AllChannels() {
		for _, vc := range ch.VCs {
			v := d.vcVertex(ch, int(vc.Index))
			if !locked[v] {
				continue
			}
			r := obs.WaitResource{
				Kind: "vc", Desc: vc.String(),
				Router:   int(consumerRouter(ch)),
				Endpoint: -1, Queue: -1, VC: int(vc.Index),
				BlockedFor: -1,
			}
			if now >= 0 {
				r.BlockedFor = now - vc.LastMove
			}
			if f, ok := vc.Front(); ok {
				r.Pkt = int64(f.Pkt.ID)
				m := f.Pkt.Msg
				r.Txn = int64(m.Txn)
				r.MsgType = m.Type.String()
				r.Src, r.Dst = m.Src, m.Dst
			}
			fill(v, r)
		}
	}
	for ep, ni := range h.AllNIs() {
		rt := int(tor.EndpointByID(ep).Router)
		for q := 0; q < d.layout.Queues; q++ {
			if v := d.layout.InVertex(ep, q); locked[v] {
				r := obs.WaitResource{
					Kind: "inq", Desc: fmt.Sprintf("ni%d.in%d", ep, q),
					Router: rt, Endpoint: ep, Queue: q, VC: -1,
					BlockedFor: -1,
				}
				if m, ok := ni.Head(q); ok {
					r.Txn = int64(m.Txn)
					r.MsgType = m.Type.String()
					r.Src, r.Dst = m.Src, m.Dst
				}
				fill(v, r)
			}
			if v := d.layout.OutVertex(ep, q); locked[v] {
				r := obs.WaitResource{
					Kind: "outq", Desc: fmt.Sprintf("ni%d.out%d", ep, q),
					Router: rt, Endpoint: ep, Queue: q, VC: -1,
					BlockedFor: -1,
				}
				if m, _, _, ok := ni.OutHead(q); ok {
					r.Txn = int64(m.Txn)
					r.MsgType = m.Type.String()
					r.Src, r.Dst = m.Src, m.Dst
				}
				fill(v, r)
			}
		}
	}
	return chain
}

// scanDiff compares production with the reference at every scan of one run
// and tallies what kinds of scan it saw.
type scanDiff struct {
	t   *testing.T
	n   *network.Network
	ref *refDetector

	scans, fresh, persisting, cleared int
	wasLocked                         bool
}

func newScanDiff(t *testing.T, n *network.Network) *scanDiff {
	n.Detector.Forensics = true
	ref := newRefDetector(n)
	ref.Forensics = true
	return &scanDiff{t: t, n: n, ref: ref}
}

// Event runs the reference on KindCWGScan, which the network emits right
// after the production scan returns, before anything else moves.
func (s *scanDiff) Event(e obs.Event) {
	if e.Kind == obs.KindCWGScan {
		s.compare(e.Cycle, int(e.Arg), int(e.Aux))
	}
}

// compare runs the reference scan on the state production just scanned and
// checks everything a scan returns, publishes or accumulates.
func (s *scanDiff) compare(now int64, locked, fresh int) {
	t, n, ref := s.t, s.n, s.ref
	t.Helper()
	det := n.Detector
	l := det.Layout()

	// The reference republishes vc.Knotted, so read production's flags first.
	flags := make([]bool, l.NumVC)
	for _, ch := range n.Channels {
		for _, vc := range ch.VCs {
			flags[l.VCVertex(vc)] = vc.Knotted
		}
	}
	refLocked, refFresh := ref.ScanAt(now)

	at := fmt.Sprintf("scan %d @%d", det.Scans, now)
	if locked != refLocked || fresh != refFresh {
		t.Fatalf("%s: production returned (%d, %d), reference (%d, %d)", at, locked, fresh, refLocked, refFresh)
	}
	for v, k := range flags {
		if k != ref.prevLock[v] {
			t.Fatalf("%s: VC vertex %d Knotted=%v, reference %v", at, v, k, ref.prevLock[v])
		}
	}
	lockedSet := make([]bool, l.Total)
	for _, v := range det.LockedVertices() {
		lockedSet[v] = true
	}
	if !reflect.DeepEqual(lockedSet, ref.prevLock) {
		t.Fatalf("%s: locked sets differ", at)
	}
	got := [...]int64{det.Scans, det.Deadlocks, int64(det.LastDeadlocked)}
	want := [...]int64{ref.Scans, ref.Deadlocks, int64(ref.LastDeadlocked)}
	if got != want {
		t.Fatalf("%s: counters %v, reference %v", at, got, want)
	}
	if !reflect.DeepEqual(det.KnotChain(), ref.lastChain) {
		t.Fatalf("%s: KnotChain differs:\n got %+v\nwant %+v", at, det.KnotChain(), ref.lastChain)
	}

	s.scans++
	switch {
	case fresh > 0:
		s.fresh++
	case locked > 0 && s.wasLocked:
		s.persisting++
	case locked == 0 && s.wasLocked:
		s.cleared++
	}
	s.wasLocked = locked > 0
}

// TestScanMatchesReference runs scarce-resource configurations that really
// knot and holds production to the reference at every scan, in the
// network-driven modes (threshold and probe triggers, DR and PR) and driven by
// hand through Scan with recovery disabled, where knots persist. The tallies
// guard against a vacuous pass: across the runs there must be scans that
// found a fresh knot, scans that found one persisting, and knot→clean
// transitions — the path that must still clear the flags.
func TestScanMatchesReference(t *testing.T) {
	base := network.DefaultConfig()
	base.Radix = []int{4, 4}
	base.Pattern = protocol.PAT721
	base.VCs, base.QueueCap = 2, 2
	base.Rate = 0.03
	base.Warmup, base.Measure, base.MaxDrain = 0, 6000, 4000

	var scans, fresh, persisting, cleared int
	tally := func(t *testing.T, s *scanDiff) {
		t.Logf("%d scans: %d fresh, %d persisting, %d cleared", s.scans, s.fresh, s.persisting, s.cleared)
		scans, fresh, persisting, cleared = scans+s.scans, fresh+s.fresh, persisting+s.persisting, cleared+s.cleared
	}
	for _, scheme := range []schemes.Kind{schemes.DR, schemes.PR} {
		for _, detector := range []string{network.DetectorThreshold, network.DetectorProbe} {
			for seed := uint64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%v/%s/seed%d", scheme, detector, seed), func(t *testing.T) {
					cfg := base
					cfg.Scheme, cfg.Detector, cfg.Seed = scheme, detector, seed
					if scheme == schemes.DR {
						cfg.VCs = 4 // DR's minimum
					}
					n, err := network.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					s := newScanDiff(t, n)
					n.AttachObs(obs.NewBus(s))
					n.Run()
					tally(t, s)
				})
			}
		}
	}
	t.Run("manual", func(t *testing.T) {
		cfg := base
		cfg.Scheme, cfg.Seed = schemes.PR, 5
		cfg.CWGInterval = 1 << 40 // installed, driven by hand
		cfg.DetectThreshold, cfg.RouterTimeout = 1<<30, 1<<30
		n, err := network.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Rescue.Lose() // no recovery: knots form and stay
		s := newScanDiff(t, n)
		for i := 0; i < 60; i++ {
			n.RunCycles(50)
			locked, fresh := n.Detector.ScanAt(-1)
			s.compare(-1, locked, fresh)
		}
		tally(t, s)
	})
	if fresh == 0 || persisting == 0 || cleared == 0 {
		t.Fatalf("vacuous: %d scans saw %d fresh knots, %d persisting, %d knot→clean transitions; need all three",
			scans, fresh, persisting, cleared)
	}
}
