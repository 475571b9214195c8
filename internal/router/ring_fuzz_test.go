package router

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/message"
)

// refVC is the two-slice flit buffer VC had before it held a ring of flits,
// and then a window on its owner's worm: committed flits in buf, this cycle's
// arrivals in staged, append on Stage, append again on Commit, copy-shift on
// Dequeue. The method bodies are the old ones verbatim, minus the router
// plumbing (feeder/host words), which no VC has here; occ is the committed-flit
// count the network once kept in a shared counter, now the reference for
// Channel.Occupied. It is the reference FuzzVCRing holds the window against.
type refVC struct {
	index   int
	cap     int
	buf     []message.Flit
	staged  []message.Flit
	owner   *message.Packet
	last    int64
	occ     *int64
	occWord *uint64
}

func (v *refVC) ReduceCap() bool {
	if v.cap <= 1 || len(v.buf)+len(v.staged) >= v.cap {
		return false
	}
	v.cap--
	return true
}

func (v *refVC) Len() int       { return len(v.buf) }
func (v *refVC) SpaceFor() bool { return len(v.buf)+len(v.staged) < v.cap }
func (v *refVC) StagedLen() int { return len(v.staged) }

func (v *refVC) Front() (message.Flit, bool) {
	if len(v.buf) == 0 {
		return message.Flit{}, false
	}
	return v.buf[0], true
}

func (v *refVC) Stage(f message.Flit) {
	if !v.SpaceFor() {
		panic(fmt.Sprintf("router: staging into full VC %d", v.index))
	}
	v.staged = append(v.staged, f)
}

func (v *refVC) Commit(now int64) {
	ns := len(v.staged)
	if ns == 0 {
		return
	}
	if len(v.buf) == 0 {
		v.last = now
	}
	if v.occ != nil {
		*v.occ += int64(ns)
	}
	if ns == 1 {
		v.buf = append(v.buf, v.staged[0])
	} else {
		v.buf = append(v.buf, v.staged...)
	}
	v.staged = v.staged[:0]
	*v.occWord |= 1 << uint(v.index)
}

func (v *refVC) Dequeue(now int64) message.Flit {
	if len(v.buf) == 0 {
		panic("router: dequeue from empty VC")
	}
	f := v.buf[0]
	copy(v.buf, v.buf[1:])
	v.buf = v.buf[:len(v.buf)-1]
	if v.occ != nil {
		*v.occ--
	}
	if len(v.buf) == 0 {
		*v.occWord &^= 1 << uint(v.index)
	}
	v.last = now
	if f.Tail() {
		v.owner = nil
	}
	return f
}

func (v *refVC) Evacuate(pkt *message.Packet, now int64) int {
	if v.owner != pkt {
		return 0
	}
	n := len(v.buf) + len(v.staged)
	if v.occ != nil {
		*v.occ -= int64(len(v.buf))
	}
	v.buf = v.buf[:0]
	v.staged = v.staged[:0]
	v.owner = nil
	*v.occWord &^= 1 << uint(v.index)
	v.last = now
	return n
}

// capture returns a copy of the reference to restore from later. Like the
// real VC's checkpoint, it panics on staged flits.
func (v *refVC) capture() *refVC {
	if len(v.staged) != 0 {
		panic("router: checkpoint with staged flits (not at a cycle boundary)")
	}
	return &refVC{buf: slices.Clone(v.buf), owner: v.owner, last: v.last}
}

// restore also redoes what Channel.ResetDerived does for a real VC (the
// occupancy bit) and keeps the reference's flit count, which the channel's
// Occupied scan must match.
func (v *refVC) restore(s *refVC) {
	*v.occ -= int64(len(v.buf))
	v.buf = append(v.buf[:0], s.buf...)
	v.staged = v.staged[:0]
	v.owner, v.last = s.owner, s.last
	*v.occ += int64(len(v.buf))
	*v.occWord &^= 1 << uint(v.index)
	if len(v.buf) > 0 {
		*v.occWord |= 1 << uint(v.index)
	}
}

// panics runs f and reports whether it panicked.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return
}

// refWords is what VC.Checkpoint wrote when the VC stored its flits: the
// committed count, each flit's packet reference and index, then the owner,
// the route (none here), RoutePort, LastMove and the two flags.
func refWords(v *refVC) []uint64 {
	w := ckpt.NewWriter(0, 0)
	w.Len(len(v.buf))
	for i := range v.buf {
		ckpt.Ref(w, &v.buf[i].Pkt)
		ckpt.Int(w, &v.buf[i].Idx)
	}
	owner, port, knotted, stall := v.owner, 0, false, false
	var route *VC
	ckpt.Ref(w, &owner)
	CheckpointVC(w, &route, nil)
	ckpt.Int(w, &port)
	w.Time(&v.last)
	w.Bool(&knotted)
	w.Bool(&stall)
	return w.Words()
}

// FuzzVCRing drives one VC and the reference through the same random
// Stage/Commit/Dequeue/Evacuate/ReduceCap/checkpoint/restore sequence and
// compares everything observable after every op, the checkpoint's words
// included — and a checkpoint that read back wrong shows once it is
// restored. data[0] picks the capacity (1–6), each further byte b one op,
// b%7. The worms are owner-consistent, as the allocator and the NI make them:
// a worm claims the VC (sets Owner) once the one before has left it and
// stages its flits in order, several between commits as a rescue drain does.
// Illegal ops (stage into a full VC, dequeue from an empty one, snapshot with
// staged flits) must panic on both sides and leave both unchanged. The five
// op-0 bytes from 224 up instead stage a flit of another packet, or one of
// the owner's out of order, which must panic on the VC (the reference would
// take it) and change nothing; every byte below 224 keeps the op it had when
// the VC held a ring of flits, so the committed corpus still runs what it was
// written for, under the target's old name.
func FuzzVCRing(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 0, 1, 2, 0, 0, 2})                                  // cap 2, 1-flit worms: stage/commit/dequeue, overflow and underflow
	f.Add([]byte{3, 0, 0, 0, 0, 1, 2, 2, 0, 0, 1, 2, 2, 2, 2, 0, 1})             // cap 4: multi-flit staging
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 1, 2, 2, 2, 0, 0, 0, 1, 3, 0, 1, 4, 4})    // cap 6: evacuate, reduce
	f.Add([]byte{2, 0, 0, 1, 5, 2, 0, 1, 6, 2, 2, 2, 0, 5, 1, 5, 6})             // cap 3: capture, move on, restore
	f.Add([]byte{0, 0, 1, 4, 2, 0, 1, 2})                                        // cap 1
	f.Add([]byte{1, 21, 0, 1, 2, 0, 1, 2, 2, 0, 0, 1, 2, 2, 0, 1, 2})            // cap 2, a 4-flit worm through a drained VC
	f.Add([]byte{3, 14, 0, 224, 231, 1, 224, 238, 2, 231, 0, 1, 2, 2, 231, 224}) // cap 4, a 3-flit worm: foreign and out-of-order flits
	f.Add([]byte{2, 28, 0, 1, 5, 2, 0, 1, 6, 2, 5, 2, 0, 1, 6, 2, 2})            // cap 3, a 5-flit worm: restore into a moved window
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0])%6 + 1
		var refOcc int64
		var refWord uint64
		ch := NewChannel(KindLink, 0, 1, 0, 0, 0, 2, capacity)
		vc := ch.VCs[1]
		ref := &refVC{index: 1, cap: capacity, occ: &refOcc, occWord: &refWord}

		// The worm being fed in: pkt's next flit to stage is sent; a new
		// worm starts only once the VC has been released, as the allocator
		// guarantees. saved* hold the last snapshot and the feed state then.
		var pkt *message.Packet
		sent, nextID := 0, 1
		var saved *ckpt.C // what the VC wrote, replayed over the live packets
		var savedRef *refVC
		var savedPkt *message.Packet
		savedSent := 0

		for step, b := range data[1:] {
			now := int64(step + 1)
			op := int(b % 7)
			if op == 0 && b >= 224 {
				op = 7 + int(b/7-32)%3 // 224, 245: 7; 231, 252: 8; 238: 9
			}
			switch op {
			case 0: // Stage the worm's next flit; a new worm claims the VC first
				if pkt == nil || (sent == pkt.Msg.Flits && vc.Owner == nil) {
					pkt, sent = mkPacket(nextID, int(b/7)%5+1), 0
					nextID++
					vc.Owner, ref.owner = pkt, pkt
				}
				if sent == pkt.Msg.Flits {
					break // worm fully sent and still in the VC
				}
				fl := message.Flit{Pkt: pkt, Idx: sent}
				p, rp := panics(func() { vc.Stage(fl) }), panics(func() { ref.Stage(fl) })
				if p != rp {
					t.Fatalf("step %d: Stage panicked=%v, reference %v", step, p, rp)
				}
				if !p {
					sent++
				}
			case 1: // Commit
				ch.Commit(now)
				ref.Commit(now)
			case 2: // Dequeue
				var got, want message.Flit
				p, rp := panics(func() { got = vc.Dequeue(now) }), panics(func() { want = ref.Dequeue(now) })
				if p != rp || got != want {
					t.Fatalf("step %d: Dequeue = %v (panicked=%v), reference %v (%v)", step, got, p, want, rp)
				}
			case 3: // Evacuate the owner
				if vc.Owner == nil {
					break
				}
				if got, want := vc.Evacuate(vc.Owner, now), ref.Evacuate(ref.owner, now); got != want {
					t.Fatalf("step %d: Evacuate removed %d flits, reference %d", step, got, want)
				}
				if pkt != nil {
					sent = pkt.Msg.Flits // the rest of the worm is gone too
				}
			case 4: // ReduceCap
				if got, want := vc.ReduceCap(), ref.ReduceCap(); got != want {
					t.Fatalf("step %d: ReduceCap = %v, reference %v", step, got, want)
				}
			case 5: // checkpoint
				w := ckpt.NewWriter(0, 0)
				var rs *refVC
				p, rp := panics(func() { vc.Checkpoint(w, nil) }), panics(func() { rs = ref.capture() })
				if p != rp {
					t.Fatalf("step %d: checkpoint panicked=%v, reference %v", step, p, rp)
				}
				if !p {
					if got, want := w.Words(), refWords(ref); !slices.Equal(got, want) {
						t.Fatalf("step %d: checkpoint words %v, the flit store wrote %v", step, got, want)
					}
					saved, savedRef, savedPkt, savedSent = w, rs, pkt, sent
				}
			case 6: // restore (cycle boundaries only, as ResetDerived insists)
				if saved == nil || ch.StagePending() {
					break
				}
				r := saved.Replay()
				vc.Checkpoint(r, nil)
				r.Done()
				ch.ResetDerived()
				ref.restore(savedRef)
				pkt, sent = savedPkt, savedSent
			case 7: // a flit of a packet that does not own the VC, at the next index
				next := int(vc.front + vc.n + vc.ns)
				if !panics(func() { vc.Stage(message.Flit{Pkt: mkPacket(0, 5), Idx: next}) }) {
					t.Fatalf("step %d: %v took a flit of a packet other than its owner %v", step, vc, vc.Owner)
				}
			case 8, 9: // the owner's flit one past (8) or one before (9) the next, on a VC holding flits
				if vc.n+vc.ns == 0 {
					break // an empty VC takes any flit of its owner
				}
				idx := int(vc.front+vc.n+vc.ns) + 1 - 2*(op-8)
				if !panics(func() { vc.Stage(message.Flit{Pkt: vc.Owner, Idx: idx}) }) {
					t.Fatalf("step %d: %v took flit %d out of order (front %d, %d+%d held)", step, vc, idx, vc.front, vc.n, vc.ns)
				}
			}

			if vc.Len() != ref.Len() || vc.StagedLen() != ref.StagedLen() || vc.SpaceFor() != ref.SpaceFor() || vc.Cap() != ref.cap {
				t.Fatalf("step %d op %d: len/staged/space/cap = %d/%d/%v/%d, reference %d/%d/%v/%d", step, op,
					vc.Len(), vc.StagedLen(), vc.SpaceFor(), vc.Cap(), ref.Len(), ref.StagedLen(), ref.SpaceFor(), ref.cap)
			}
			gf, gok := vc.Front()
			wf, wok := ref.Front()
			if gf != wf || gok != wok {
				t.Fatalf("step %d op %d: Front = %v,%v, reference %v,%v", step, op, gf, gok, wf, wok)
			}
			i := 0
			vc.ForEachFlit(func(fl message.Flit) {
				if i >= len(ref.buf) || fl != ref.buf[i] {
					t.Fatalf("step %d op %d: flit %d = %v, reference buffer %v", step, op, i, fl, ref.buf)
				}
				i++
			})
			if i != len(ref.buf) {
				t.Fatalf("step %d op %d: visited %d flits, reference holds %d", step, op, i, len(ref.buf))
			}
			if ch.OccMask() != refWord || int64(ch.Occupied()) != refOcc || vc.LastMove != ref.last || vc.Owner != ref.owner {
				t.Fatalf("step %d op %d: occ word %#x Occupied %d LastMove %d owner %v, reference %#x %d %d %v", step, op,
					ch.OccMask(), ch.Occupied(), vc.LastMove, vc.Owner, refWord, refOcc, ref.last, ref.owner)
			}
		}
	})
}
