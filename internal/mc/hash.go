package mc

import (
	"repro/internal/fnv1a"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/router"
)

// Canonical state hashing. Two network snapshots hash equal only if every
// future behavior from them is identical, so the visited-set merge is sound:
//
//   - Absolute-time fields (timestamps, deadlines, busy-until markers) are
//     rebased to the snapshot cycle; behavior depends only on their distance
//     from now. Negative sentinels (-1 "never") are kept distinct from any
//     rebased value by offsetting them below the int64 midpoint.
//   - The clock itself is excluded except for its scan phase (now mod
//     CWGInterval) and token-walk phase, the only ways absolute time feeds
//     back into behavior.
//   - Round-robin cursors are folded raw: a cursor is only consumed modulo
//     its arbiter's competitor count, so rebasing them could merge more
//     states, but the modulus varies with occupancy and a wrong fold would
//     merge states that behave differently. Raw inclusion is unconditionally
//     sound and the extra states are few (cursors advance in lockstep with
//     the activity already folded in).
//   - Pure accounting (statistics, latency timestamps, event counters) is
//     excluded; it cannot influence future transitions.
//
// Everything else — buffer contents, worm ownership, routes, queue contents,
// controller state, recovery machinery, detector memory, script gates — is
// folded in field by field. Unequal states can still hash equal only by
// 64-bit collision, which would wrongly prune a path; with the state counts
// involved (well under 2^20) the risk is negligible.

// tagNil is the sentinel that keeps nil markers disjoint from real encodings.
const tagNil = -1 << 40

type hasher struct{ h uint64 }

func (z *hasher) w(v int64) { z.h = fnv1a.Uint64(z.h, uint64(v)) }

func (z *hasher) wb(b bool) {
	if b {
		z.w(1)
	} else {
		z.w(0)
	}
}

// rebase maps an absolute cycle to a now-relative one, keeping negative
// sentinels distinct from any real distance.
func rebase(t, now int64) int64 {
	if t < 0 {
		return tagNil + t
	}
	return t - now
}

// vcIndex is a VC's stable canonical index.
func (e *Explorer) vcIndex(vc *router.VC) int64 {
	if vc == nil {
		return tagNil
	}
	return int64(vc.Ch.ID*e.vcsPer + vc.Index)
}

// stateHash folds a snapshot into a canonical 64-bit hash.
func (e *Explorer) stateHash(s *network.Snapshot) uint64 {
	z := &hasher{h: fnv1a.Offset}
	now := s.ClockNow
	if e.opt.Net.CWGInterval > 0 {
		z.w(now % e.opt.Net.CWGInterval)
	}
	if hop := int64(e.opt.Net.TokenHopCycles); hop > 1 {
		z.w(now % hop)
	}

	encMsg := func(m *message.Message) {
		if m == nil {
			z.w(tagNil)
			return
		}
		z.w(int64(m.Txn))
		z.w(int64(m.Type))
		z.w(int64(m.Hop))
		z.w(int64(m.Branch))
		z.w(int64(m.Src))
		z.w(int64(m.Dst))
		z.w(int64(m.Flits))
		z.w(rebase(m.Injected, now))
		z.wb(m.Deflected)
		z.wb(m.Rescued)
		z.wb(m.Preallocated)
		z.wb(m.Backoff)
		z.wb(m.Nack)
		z.w(int64(m.Retries))
		z.w(int64(m.ReissueStep))
	}
	encPkt := func(p *message.Packet) {
		if p == nil {
			z.w(tagNil)
			return
		}
		z.w(int64(p.ID))
		z.w(int64(p.SentFlits))
		z.w(int64(p.ArrivedFlits))
		z.wb(p.BeingRescued)
		encMsg(p.Msg)
	}

	z.w(int64(len(s.Txns)))
	for _, t := range s.Txns {
		z.w(int64(t.ID))
		z.w(int64(e.templateIndex(t.Tmpl)))
		z.w(int64(t.Requester))
		z.w(int64(t.Home))
		for _, th := range t.Thirds {
			z.w(int64(th))
		}
		z.w(int64(t.Completed))
		z.w(int64(t.Deflections))
	}

	for i := range s.VCs {
		v := &s.VCs[i]
		z.w(int64(len(v.Flits)))
		for _, f := range v.Flits {
			encPkt(f.Pkt)
			z.w(int64(f.Idx))
		}
		encPkt(v.Owner)
		z.w(e.vcIndex(v.Route))
		z.w(int64(v.RoutePort))
		z.w(rebase(v.LastMove, now))
		z.wb(v.Knotted)
		z.wb(v.StallNoted)
	}

	for i := range s.Routers {
		r := &s.Routers[i]
		z.w(int64(r.VaRR))
		z.w(int64(r.PickRR))
		for _, sa := range r.SaRR {
			z.w(int64(sa))
		}
		z.wb(r.DBBusy)
		z.w(rebase(r.FrozenUntil, now))
	}

	for i := range s.NIs {
		ni := &s.NIs[i]
		z.w(int64(len(ni.SourceQ)))
		for _, m := range ni.SourceQ {
			encMsg(m)
		}
		for q := range ni.OutQ {
			z.w(int64(len(ni.OutQ[q])))
			for _, en := range ni.OutQ[q] {
				encMsg(en.Msg)
				encPkt(en.Pkt)
				z.w(e.vcIndex(en.VC))
			}
		}
		for _, r := range ni.OutRes {
			z.w(int64(r))
		}
		for q := range ni.InQ {
			z.w(int64(len(ni.InQ[q])))
			for _, m := range ni.InQ[q] {
				encMsg(m)
			}
		}
		for _, a := range ni.InAlloc {
			z.w(int64(a))
		}
		z.w(int64(len(ni.PendingGen)))
		for _, pg := range ni.PendingGen {
			encMsg(pg.Msg)
			z.w(rebase(pg.ReadyAt, now))
		}
		z.w(rebase(ni.CtrlBusyUntil, now))
		encMsg(ni.CtrlMsg)
		z.wb(ni.CtrlFromRescue)
		encMsg(ni.RescueReq)
		for _, st := range ni.Streak {
			z.w(st)
		}
		for _, b := range ni.InFullNoted {
			z.wb(b)
		}
		for _, b := range ni.OutFullNoted {
			z.wb(b)
		}
		z.w(int64(ni.CtrlRR))
		z.w(int64(ni.InjRR))
		z.w(int64(ni.EjRR))
		z.wb(ni.WantRescue)
		z.w(rebase(ni.StallUntil, now))
	}

	if s.Token != nil {
		z.w(int64(s.Token.Pos))
		z.wb(s.Token.Held)
		z.w(int64(s.Token.Ctr))
		z.wb(s.Token.Lost)
		z.w(int64(s.Token.Epoch))
		z.w(s.Token.LostCycles)
	}
	if s.Rescue != nil {
		z.w(int64(s.Rescue.Phase))
		z.w(int64(len(s.Rescue.Stack)))
		for _, f := range s.Rescue.Stack {
			z.w(int64(f.Endpoint))
			z.w(int64(len(f.Pending)))
			for _, m := range f.Pending {
				encMsg(m)
			}
		}
		z.w(int64(s.Rescue.CaptureRouter))
		encMsg(s.Rescue.TransferMsg)
		z.w(rebase(s.Rescue.Timer, now))
		z.w(int64(s.Rescue.ReturnFrom))
		if s.Rescue.ServiceNI != nil {
			z.w(int64(s.Rescue.ServiceNI.Cfg.Endpoint))
		} else {
			z.w(tagNil)
		}
	}
	if s.Detector != nil {
		for _, b := range s.Detector.PrevLock {
			z.wb(b)
		}
		z.w(int64(s.Detector.LastDeadlocked))
	}
	if s.Probe != nil {
		// Launch sequence numbers are monotonic allocation IDs; two states
		// whose probe populations differ only by absolute sequence values
		// behave identically, so seqs fold as their rank among the live
		// launches (CaptureState sorts them ascending). Born is absolute
		// time and rebases like every other timestamp.
		seqIdx := make(map[int64]int64, len(s.Probe.Launches))
		z.w(int64(len(s.Probe.Launches)))
		for i, lr := range s.Probe.Launches {
			seqIdx[lr.Seq] = int64(i)
			z.w(int64(i))
			z.w(int64(lr.Origin))
			z.w(int64(lr.Outstanding))
			z.w(int64(len(lr.Seen)))
			for _, v := range lr.Seen {
				z.w(int64(v))
			}
		}
		for _, q := range s.Probe.Chq {
			z.w(int64(len(q)))
			for _, pr := range q {
				z.w(int64(pr.Origin))
				z.w(int64(pr.Sender))
				z.w(int64(pr.Target))
				z.w(seqIdx[pr.Seq])
				z.w(rebase(pr.Born, now))
			}
		}
	}

	st := s.Source.(scriptState)
	for i := range st.released {
		z.wb(st.released[i])
		z.wb(st.injected[i])
	}
	return z.h
}
