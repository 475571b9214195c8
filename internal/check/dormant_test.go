package check_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/schemes"
)

// niWorld writes everything a step of one NI could touch: its own state, then
// the VCs of its two channels and the size of the transaction table. Payloads
// are written by value, so two worlds are equal iff their words are.
func niWorld(n *network.Network, ni *netiface.NI) *ckpt.C {
	w := ckpt.NewWriter(0, 0)
	ni.Checkpoint(w, n.Channels)
	for _, ch := range []*router.Channel{ni.Inject, ni.Eject} {
		for _, vc := range ch.VCs {
			vc.Checkpoint(w, n.Channels)
		}
	}
	txns := n.Table.Len()
	ckpt.Int(w, &txns)
	return w
}

// rewindNI writes the NI's part of a world back into it, over the live
// payload objects it was written from.
func rewindNI(n *network.Network, ni *netiface.NI, world *ckpt.C) {
	ni.Checkpoint(world.Replay(), n.Channels)
}

// peek reads an unexported field of a simulator object.
func peek(obj any, field string) reflect.Value {
	return reflect.ValueOf(obj).Elem().FieldByName(field)
}

// TestDormantStepIsRotation holds NI.Dormant and NI.SkipIdle to the thing
// they stand in for. At the end of every cycle of full runs, for every NI
// that Dormant says may sleep past the next cycle, the next cycle's Step is
// run for real and undone, and must have changed exactly what SkipIdle(1)
// changes: nothing but the rotation cursors, the controller's only when it is
// free. The runs must contain sleepers of both kinds, and the scarce one
// (one-slot queues, so the controller's own output reservation blocks the
// next head) must contain NIs that only the detector's arming condition keeps
// awake.
//
// Mutation checks, each applied, seen failing here and reverted: SkipIdle
// rotating ctrlRR while the controller is busy (every run fails at its first
// busy sleeper); Dormant ignoring the arming condition (the scarce runs fail:
// Step extends a streak SkipIdle knows nothing of).
func TestDormantStepIsRotation(t *testing.T) {
	type tc struct {
		name   string
		cfg    network.Config
		scarce bool
	}
	var cases []tc
	for _, kind := range []schemes.Kind{schemes.PR, schemes.DR, schemes.SA} {
		vcs := 4
		if kind == schemes.SA {
			vcs = 8
		}
		for _, rate := range []float64{0.001, 0.012} {
			cases = append(cases, tc{fmt.Sprintf("%v-%g", kind, rate), smallCfg(kind, protocol.PAT721, vcs, rate), false})
		}
		cfg := smallCfg(kind, protocol.PAT721, vcs, 0.02)
		cfg.QueueCap = 1
		cases = append(cases, tc{fmt.Sprintf("%v-scarce", kind), cfg, true})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := mustNet(t, tc.cfg)
			var free, busy, armedOnly int
			n.OnCycle = func(now int64) {
				for _, ni := range n.NIs {
					until, ok := ni.Dormant()
					if !ok {
						// Asleep but for the arming condition: nothing to send
						// or eject, no streak running, controller occupied.
						quiet := ni.SourceBacklog() == 0 && ni.PendingGenLen() == 0 && peek(ni, "rescueReq").IsNil() &&
							!peek(ni, "ctrlMsg").IsNil() && ni.Eject.OccMask() == 0
						for q := 0; q < ni.Cfg.Queues; q++ {
							quiet = quiet && ni.OutQueueLen(q) == 0 && peek(ni, "streak").Index(q).Int() == 0
						}
						if quiet {
							armedOnly++
						}
						continue
					}
					if until <= now+1 {
						continue
					}
					if until == netiface.Never {
						free++
					} else {
						busy++
					}
					before := niWorld(n, ni)
					ni.Step(now + 1)
					stepped := niWorld(n, ni).Words()
					rewindNI(n, ni, before)
					ni.SkipIdle(1)
					skipped := niWorld(n, ni).Words()
					rewindNI(n, ni, before)
					if !slices.Equal(stepped, skipped) {
						t.Fatalf("cycle %d ni%d dormant until %d: Step and SkipIdle(1) part ways\nbefore  %v\nstepped %v\nskipped %v",
							now, ni.Cfg.Endpoint, until, before.Words(), stepped, skipped)
					}
					// The cursors are the words RotateArb moves; a dormant step
					// may have moved nothing else.
					ni.RotateArb(1)
					rotated := niWorld(n, ni).Words()
					ni.RotateArb(-1)
					b := before.Words()
					same := len(stepped) == len(b)
					for i := 0; same && i < len(b); i++ {
						cursor := b[i] != rotated[i]
						same = cursor || b[i] == stepped[i]
					}
					if !same {
						t.Fatalf("cycle %d ni%d: a dormant step changed more than the cursors\nbefore  %v\nstepped %v",
							now, ni.Cfg.Endpoint, b, stepped)
					}
				}
			}
			n.Run()
			t.Logf("dormant NI-cycles checked: %d with the controller free, %d waiting it out; %d kept awake by the arming condition alone",
				free, busy, armedOnly)
			if free == 0 || busy == 0 {
				t.Fatalf("%d free and %d controller-busy sleepers: the run does not test both rules", free, busy)
			}
			if tc.scarce && armedOnly == 0 {
				t.Fatal("no NI was kept awake by the arming condition alone: the scarce run does not reach it")
			}
		})
	}
}

// asleepOnTimer reports whether endpoint ep's NI is out of the active set
// waiting out its controller, and until which cycle.
func asleepOnTimer(n *network.Network, ep int) (until int64, ok bool) {
	until, ok = n.NIs[ep].Dormant()
	return until, ok && until != netiface.Never && !n.NIActive(ep)
}

// sleeperOnTheRing runs n until some NI is asleep on a timer with a few cycles
// to go, and returns it with its wake cycle.
func sleeperOnTheRing(t *testing.T, n *network.Network) (*netiface.NI, int64) {
	t.Helper()
	for i := 0; i < 3000; i++ {
		n.RunCycles(1)
		for ep, ni := range n.NIs {
			if until, ok := asleepOnTimer(n, ep); ok && until > n.Clock.Now()+2 {
				return ni, until
			}
		}
	}
	t.Fatal("no NI went to sleep on the wake ring within 3000 cycles")
	return nil, 0
}

// TestLostTimerCaught clears a sleeping NI's bit from the wake ring behind the
// network's back (the ring is unexported; the test reaches it through
// reflection). Unless traffic happens to arrive there, nothing then puts the
// NI back into the active set: its controller never completes and the run
// never drains, but no digest is wrong until it hangs — so the checker is what
// has to see it, at once.
func TestLostTimerCaught(t *testing.T) {
	n := mustNet(t, smallCfg(schemes.PR, protocol.PAT271, 4, 0.004))
	c := check.Attach(n, check.Options{})
	ni, until := sleeperOnTheRing(t, n)
	if err := c.Err(); err != nil {
		t.Fatalf("violations before the forgery: %v", err)
	}
	ep := ni.Cfg.Endpoint
	if at := n.NIWakeAt(ep); at > until {
		t.Fatalf("ni%d asleep until %d with its timer at %d before anything was forged", ep, until, at)
	}

	f := peek(n, "wakeRing")
	ring := unsafe.Slice((*uint64)(f.UnsafePointer()), f.Len())
	words := len(ring) / 64
	for slot := 0; slot < 64; slot++ {
		ring[slot*words+ep>>6] &^= 1 << uint(ep&63)
	}
	if at := n.NIWakeAt(ep); at != netiface.Never {
		t.Fatalf("the forgery missed: ni%d still has a timer at %d", ep, at)
	}

	c.CheckNow(n.Clock.Now())
	if !hasRule(c.Violations(), "inactive-ni-busy") || len(c.Violations()) != 1 {
		t.Fatalf("lost timer not caught, or not alone; rules seen: %v", rules(c.Violations()))
	}
}

// TestInactiveNIBusyCaught gives a sleeping NI work without waking it: a
// message appears in its source queue behind EnqueueSource's back (the queue
// is unexported; the test reaches it through reflection). The NI is then
// outside the active set and not dormant.
func TestInactiveNIBusyCaught(t *testing.T) {
	n := mustNet(t, smallCfg(schemes.PR, protocol.PAT271, 4, 0.004))
	c := check.Attach(n, check.Options{})
	ni, _ := sleeperOnTheRing(t, n)
	if err := c.Err(); err != nil {
		t.Fatalf("violations before the forgery: %v", err)
	}
	now := n.Clock.Now()

	ctrl := (*message.Message)(peek(ni, "ctrlMsg").UnsafePointer())
	m := n.Pool.NewMessage(ctrl.Txn, message.M1, ni.Cfg.Endpoint, 0, 1, 1, now)
	sourceQ := (*[]*message.Message)(unsafe.Pointer(peek(ni, "sourceQ").UnsafeAddr()))
	*sourceQ = append(*sourceQ, m)
	if n.NIActive(ni.Cfg.Endpoint) {
		t.Fatal("the forgery woke the NI: it needs another way in")
	}

	c.CheckNow(now)
	if !hasRule(c.Violations(), "inactive-ni-busy") {
		t.Fatalf("work in a sleeping NI's output queue not caught; rules seen: %v", rules(c.Violations()))
	}
}
