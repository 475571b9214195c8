package check_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/fnv1a"
	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/schemes"
)

// stateWords is the network's complete canonical state as a snapshot holds it.
func stateWords(n *network.Network) []uint64 {
	w := ckpt.NewWriter(0, 0)
	n.Checkpoint(w)
	return w.Words()
}

// ledger prints every exported integer, flag and counter array of the stateful
// components and of the payload objects they hold, in a fixed order: state and
// accounting as the public API shows them. It owes nothing to the Checkpoint
// methods, so it sees a field one of them drops — which the state words, a
// field short on both sides of the comparison, do not.
func ledger(n *network.Network) string {
	var b strings.Builder
	note := func(obj any) {
		v := reflect.ValueOf(obj)
		if v.IsNil() {
			return
		}
		v = v.Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				switch k := f.Type.Kind(); {
				case k >= reflect.Bool && k <= reflect.Uint64, k == reflect.Array:
					fmt.Fprintf(&b, "%s=%v ", f.Name, v.Field(i).Interface())
				}
			}
		}
		b.WriteByte('\n')
	}
	payload := func(m *message.Message, pkt *message.Packet) {
		note(m)
		note(pkt)
	}
	note(n.Stats)
	fmt.Fprintln(&b, n.Stats.Latencies)
	note(&n.Faults)
	note(n.Token)
	note(n.Rescue)
	note(n.Detector)
	note(n.Probe)
	note(n.Source)
	var txns []*protocol.Transaction
	n.Table.ForEach(func(t *protocol.Transaction) { txns = append(txns, t) })
	slices.SortFunc(txns, func(a, b *protocol.Transaction) int { return int(a.ID - b.ID) })
	for _, t := range txns {
		note(t)
	}
	for _, r := range n.Routers {
		note(r)
	}
	for _, ch := range n.Channels {
		for _, vc := range ch.VCs {
			note(vc)
			vc.ForEachFlit(func(f message.Flit) { payload(f.Pkt.Msg, f.Pkt) })
		}
	}
	for _, ni := range n.NIs {
		note(ni)
		ni.ForEachMessage(payload)
	}
	if n.Rescue != nil {
		n.Rescue.ForEachCustody(func(m *message.Message) { note(m) })
	}
	return b.String()
}

// traceTails folds every trace event into each of the digests started so far:
// on the uninterrupted run one per snapshot, on a restored run one.
type traceTails []uint64

func (t *traceTails) Event(e obs.Event) {
	for i, h := range *t {
		for _, v := range [...]int64{e.Cycle, int64(e.Node), e.Arg, e.Aux, e.Pkt, e.Txn, int64(e.Src), int64(e.Dst)} {
			h = fnv1a.Uint64(h, uint64(v))
		}
		(*t)[i] = fnv1a.String(h, string(e.Kind)+e.MsgType+e.Note)
	}
}

// TestCheckpointContract is what every Checkpoint method owes: a snapshot
// holds everything the future depends on and nothing of the instance it came
// from. On a scarce 4x4 (2–8 VCs, 4-slot queues, rates past saturation) for
// every valid scheme and detector pairing, a snapshot is taken every 97
// cycles of a run; then each is restored into a freshly built network of the
// same Config and, twice, into the original, and each of those runs to the
// end, where its canonical state and the delivery digest of its tail must
// equal the uninterrupted run's — as must the digest of every trace event of
// the tail (every network is traced: the flags that dedupe queue-full and
// VC-stall events are state only while someone listens) and the ledger of
// what the public API shows, accounting included. The snapshots must be busy
// ones: per scheme,
// some taken mid-rescue (PR), with probes in flight (probe), with a live knot
// on the detector's books (PR; DR and AB unless the threshold detector gets
// there first) and after deflections or NACKs (DR, AB), and all with
// transactions in flight.
//
// This is the sharp tool for a dropped field: TestSnapshotRoundTrip (same
// instance, rate 0.004) passes with NI.ctrlRR, VC.LastMove or Rescue.timer
// missing from their Checkpoint methods; this fails. Mutation checks: every
// field-naming line of every Checkpoint method was deleted in turn, this test
// run and the line restored. CHANGES.md (PR 20) has the table, and the list of
// what this test cannot see — a pending rescue request — with the test that
// does, where one does. The PATFAN3 case sees the token's hop counter and
// Message.Branch.
//
// The fault rows run every network under contractFaults, the same plan on
// the fresh network as on the original, and the ledger adds the injector's
// report: their snapshots are taken while a link is dead, a router frozen, an
// NI stalled, a link stalled, a credit lost, and (PR) the token lost, after
// worms were dropped. A restore under another plan, or none, must panic
// naming both shapes.
//
// One checkpointed field stays out of sight, because no snapshot can hold it
// live: Packet.BeingRescued. Both its writers, evacuate and
// Network.DropWorm, take the packet out of every VC and output queue in the
// same call, so no snapshot reaches a packet that has it set; the fault rows
// snapshot after drops and continue identically.
func TestCheckpointContract(t *testing.T) {
	type tc struct {
		kind     schemes.Kind
		pat      *protocol.Pattern
		vcs      int
		rate     float64
		detector string
		hop      int // TokenHopCycles; 0 keeps the default
		faults   bool
	}
	var cases []tc
	for _, det := range []string{network.DetectorThreshold, network.DetectorProbe} {
		if det != network.DetectorProbe { // avoidance has nothing for a probe to trigger
			cases = append(cases, tc{schemes.SA, protocol.PAT721, 8, 0.05, det, 0, false})
		}
		cases = append(cases,
			tc{schemes.DR, protocol.PAT280, 4, 0.04, det, 0, false},
			tc{schemes.AB, protocol.PAT280, 4, 0.04, det, 0, false},
			tc{schemes.PR, protocol.PAT721, 2, 0.03, det, 0, false})
	}
	// The fields only a fan-out or a slow token makes live: Message.Branch
	// (a subordinate of branch 1 or 2 in flight) and the token's hop counter
	// (it steps 0, 1, 0, ... while TokenHopCycles is 2).
	cases = append(cases, tc{schemes.PR, fanout3, 2, 0.02, network.DetectorThreshold, 2, false})
	cases = append(cases,
		tc{schemes.DR, protocol.PAT280, 4, 0.04, network.DetectorThreshold, 0, true},
		tc{schemes.PR, protocol.PAT721, 2, 0.03, network.DetectorThreshold, 0, true})
	for _, tc := range cases {
		name := fmt.Sprintf("%v-%s", tc.kind, tc.detector)
		if tc.hop > 0 {
			name += fmt.Sprintf("-%s-hop%d", tc.pat.Name, tc.hop)
		}
		if tc.faults {
			name += "-faults"
		}
		t.Run(name, func(t *testing.T) {
			cfg := smallCfg(tc.kind, tc.pat, tc.vcs, tc.rate)
			cfg.QueueCap = 4
			cfg.Detector = tc.detector
			if tc.hop > 0 {
				cfg.TokenHopCycles = tc.hop
			}
			cfg.Warmup, cfg.Measure, cfg.MaxDrain = 0, 1000, 200
			run := func(n *network.Network, each func(now int64)) {
				for !n.Clock.Done() {
					each(n.Clock.Now())
					n.Step()
				}
			}

			// traced builds a traced network under the row's plan, if any, and
			// returns its ledger.
			traced := func() (*network.Network, *traceTails, func() string) {
				n, tails := mustNet(t, cfg), new(traceTails)
				n.AttachObs(obs.NewBus(tails))
				if !tc.faults {
					return n, tails, func() string { return ledger(n) }
				}
				inj, err := fault.Attach(n, contractFaults(tc.kind))
				if err != nil {
					t.Fatal(err)
				}
				return n, tails, func() string { return ledger(n) + inj.Report().String() }
			}

			type point struct {
				snap  *network.Snapshot
				tail  *check.Digest // on the original: frozen into sum and count below
				sum   uint64
				n     int64
				trace uint64
			}
			var points []point
			var midRescue, probing, knotted, idle int
			var deadLink, frozen, stalledNI, stalledLink, lostCredit, lostToken, dropped int
			ref, refTails, refLedger := traced()
			run(ref, func(now int64) {
				if now == 0 || now%97 != 0 {
					return
				}
				points = append(points, point{snap: ref.Snapshot(), tail: check.AttachDigest(ref)})
				*refTails = append(*refTails, fnv1a.Offset)
				if ref.Rescue != nil && ref.Rescue.Active() {
					midRescue++
				}
				if ref.Probe != nil && ref.Probe.InFlight() > 0 {
					probing++
				}
				if ref.Detector.LastDeadlocked > 0 {
					knotted++
				}
				if ref.Table.Len() == 0 {
					idle++
				}
				if ref.Health != nil && ref.Health.DeadLinks() > 0 {
					deadLink++
				}
				if slices.ContainsFunc(ref.Routers, func(r *router.Router) bool { return r.FrozenUntil > now }) {
					frozen++
				}
				if slices.ContainsFunc(ref.NIs, func(ni *netiface.NI) bool { return ni.StallUntil > now }) {
					stalledNI++
				}
				if slices.ContainsFunc(ref.Channels, func(ch *router.Channel) bool { return ch.Stalled }) {
					stalledLink++
				}
				if slices.ContainsFunc(ref.Channels, func(ch *router.Channel) bool {
					return slices.ContainsFunc(ch.VCs, func(vc *router.VC) bool { return vc.Cap() < cfg.FlitBuf })
				}) {
					lostCredit++
				}
				if ref.Token != nil && ref.Token.Lost() {
					lostToken++
				}
				if ref.Faults.LostMsgs > 0 {
					dropped++
				}
			})
			want, wantLedger := stateWords(ref), refLedger()
			for i := range points {
				points[i].sum, points[i].n, points[i].trace = points[i].tail.Sum(), points[i].tail.Count(), (*refTails)[i]
			}
			t.Logf("%d snapshots: %d mid-rescue, %d with probes in flight, %d with a live knot; %d deflections, %d deliveries after the first",
				len(points), midRescue, probing, knotted, ref.Stats.Deflections, points[0].n)
			if tc.faults {
				t.Logf("with a dead link %d, frozen router %d, stalled NI %d, stalled link %d, lost credit %d, lost token %d, after drops %d",
					deadLink, frozen, stalledNI, stalledLink, lostCredit, lostToken, dropped)
			}
			deflects := tc.kind == schemes.DR || tc.kind == schemes.AB
			for _, must := range []struct {
				wanted bool
				seen   int
				what   string
			}{
				{true, len(points) - idle, "with transactions in flight"},
				{true, int(points[len(points)-1].n), "followed by deliveries"},
				{tc.kind == schemes.PR, midRescue, "mid-rescue"},
				{tc.detector == network.DetectorProbe, probing, "with probes in flight"},
				// The threshold detector has DR and AB deflect before a knot closes.
				{tc.kind == schemes.PR || deflects && tc.detector != network.DetectorThreshold, knotted, "with a live knot"},
				{deflects, int(ref.Stats.Deflections), "after deflections"},
				{tc.faults, deadLink, "with a dead link"},
				{tc.faults, frozen, "with a frozen router"},
				{tc.faults, stalledNI, "with a stalled NI"},
				{tc.faults, stalledLink, "with a stalled link"},
				{tc.faults, lostCredit, "with a lost credit"},
				{tc.faults && tc.kind == schemes.PR, lostToken, "with the token lost"},
				{tc.faults, dropped, "after a dropped worm"},
			} {
				if must.wanted && must.seen == 0 {
					t.Fatalf("no snapshot %s: make resources scarcer", must.what)
				}
			}
			if len(points) != 12 || idle > 0 {
				t.Fatalf("%d snapshots, %d of an idle network", len(points), idle)
			}

			if tc.faults {
				restoreUnderOtherPlans(t, cfg, points[0].snap, contractFaults(tc.kind))
			}
			for i, p := range points {
				type target struct {
					n      *network.Network
					tails  *traceTails
					ledger func() string
				}
				fresh, freshTails, freshLedger := traced()
				for pass, tg := range []target{{fresh, freshTails, freshLedger}, {ref, refTails, refLedger}, {ref, refTails, refLedger}} {
					at := fmt.Sprintf("snapshot %d (cycle %d) pass %d", i, 97*(i+1), pass)
					n, tails := tg.n, tg.tails
					n.Restore(p.snap)
					tail := check.AttachDigest(n)
					*tails = traceTails{fnv1a.Offset}
					run(n, func(int64) {})
					if tail.Sum() != p.sum || tail.Count() != p.n {
						t.Fatalf("%s: the restored run delivered %v (%d), the uninterrupted one %#x (%d)", at, tail, tail.Count(), p.sum, p.n)
					}
					if (*tails)[0] != p.trace {
						t.Fatalf("%s: the restored run's trace differs from the uninterrupted one's", at)
					}
					if got := stateWords(n); !slices.Equal(got, want) {
						t.Fatalf("%s: the restored run ended in another state than the uninterrupted one", at)
					}
					if got := tg.ledger(); got != wantLedger {
						t.Fatalf("%s: the restored run's ledger differs from the uninterrupted one's:\n%s", at, firstDifference(got, wantLedger))
					}
				}
			}
		})
	}
}

// contractFaults is the plan of TestCheckpointContract's fault rows on a 4x4
// torus: one of each kind of fault live at some snapshot (every 97 cycles),
// the token's loss only under PR.
func contractFaults(kind schemes.Kind) *fault.Plan {
	p := &fault.Plan{Seed: 9, Events: []fault.Event{
		{Kind: fault.LinkFlaky, At: 100, Until: 1100, Router: 0, Dir: 0, Rate: 0.5},
		{Kind: fault.LinkFlaky, At: 100, Until: 1100, Router: 10, Dir: 1, Rate: 0.05, Drop: true},
		{Kind: fault.LinkDown, At: 150, Router: 5, Dir: 0},
		{Kind: fault.CreditLoss, At: 200, Router: 3, Dir: 2, VC: 1},
		{Kind: fault.RouterFreeze, At: 300, Router: 6, Cycles: 200},
		{Kind: fault.NIStall, At: 500, Endpoint: 9, Cycles: 200},
	}}
	if kind == schemes.PR {
		p.Events = append(p.Events, fault.Event{Kind: fault.TokenLoss, At: 600})
	}
	return p
}

// restoreUnderOtherPlans restores snap, taken under plan, into networks of
// the same Config under another plan and under none: each must panic with a
// message that names both shapes, the snapshot's with plan's faults.
func restoreUnderOtherPlans(t *testing.T, cfg network.Config, snap *network.Snapshot, plan *fault.Plan) {
	t.Helper()
	other := &fault.Plan{Events: []fault.Event{{Kind: fault.LinkDown, At: 150, Router: 5, Dir: 1}}}
	for _, p := range []*fault.Plan{other, nil} {
		n := mustNet(t, cfg)
		if p != nil {
			if _, err := fault.Attach(n, p); err != nil {
				t.Fatal(err)
			}
		}
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			n.Restore(snap)
			return "no panic"
		}()
		from, into, ok := strings.Cut(msg, "] into [")
		if !ok || !strings.Contains(from, ", faults "+plan.Canonical()) ||
			strings.Contains(into, ", faults ") != (p != nil) || p != nil && !strings.Contains(into, p.Canonical()) {
			t.Fatalf("restore under plan %s: %s", p.Canonical(), msg)
		}
	}
}

// fanout3 is a PAT721-like mix whose invalidations fan out to three sharers.
var fanout3 = &protocol.Pattern{
	Name:  "PATFAN3",
	Style: protocol.StyleS1,
	Templates: []*protocol.Template{protocol.Chain2, {Name: "inv-fan3", Steps: []protocol.Step{
		{Type: message.M1, Dest: protocol.RoleHome},
		{Type: message.M2, Dest: protocol.RoleThird, Fanout: 3},
		{Type: message.M4, Dest: protocol.RoleRequester},
	}}},
	Weights: []float64{0.3, 0.7},
}

// firstDifference returns the first line on which two ledgers differ.
func firstDifference(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			return fmt.Sprintf("line %d: got  %s\n         want %s", i, g[i], append(w, "")[min(i, len(w))])
		}
	}
	return "the uninterrupted run's is longer"
}
