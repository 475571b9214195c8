package router

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/message"
)

// TestVCSize pins the VC at 208 bytes, its size before every VC carried its
// precomputed bit. The first cut of the shared words (a bit uint64 added to
// the VC, flatVC of 64 slots per word) read alloc_kb_per_op 1770 -> 1810 on
// engine_loaded (+2.3%, over the benchmark's 2% bound) and live_heap_mb
// 9.446 -> 9.682; with the input and word index packed as two int16 beside
// the two flags, and flatVC sized to the bits used, the same runs read
// 1769.9 -> 1759.0 KB and 9.453 -> 9.392 MB.
func TestVCSize(t *testing.T) {
	if s := unsafe.Sizeof(VC{}); s > 208 {
		t.Fatalf("VC is %d bytes, want <= 208", s)
	}
}

// TestGroupLayout checks the bit groups initState hands out, for channel
// widths that fill one word exactly, leave slack, force padding (13 VCs: five
// groups are 65 bits) and take a word each, on routers with one input missing
// (a mesh edge): groups are disjoint, ascend in input order, never straddle
// two words, every bit resolves through flatVC to its VC and nothing else
// does, and a channel's OccMask is its own bits only, whatever its neighbours
// in the word hold — also for flits committed before the router's first Step
// (then into the channel's own word, at bit Index), and across RebuildState
// and a ResetDerived with no RebuildState after it, as the model checker's
// knot fixture calls it: that must clear the channel's group, not the word.
func TestGroupLayout(t *testing.T) {
	for _, vcs := range []int{1, 4, 8, 12, 13, 16, 24, 64} {
		for _, ports := range []int{3, 5, 6, 9} {
			t.Run(fmt.Sprintf("%dvc-%dports", vcs, ports), func(t *testing.T) {
				r := New(0, stubPolicy{}, ports, 1)
				for i := range r.Inputs {
					if i != 1 {
						r.Inputs[i] = NewChannel(KindLink, 1, 0, 0, 0, i, vcs, 2)
					}
				}
				for _, in := range r.Inputs {
					if in != nil {
						fill(in.VCs[vcs-1], mkPacket(in.ID, 2), 1, 0)
					}
				}
				r.initState()

				perWord := 64 / vcs
				if want := (ports - 1 + perWord - 1) / perWord; len(r.words) != want {
					t.Fatalf("%d words, want %d", len(r.words), want)
				}
				if r.groups[1] != (group{}) {
					t.Fatalf("nil input has group %+v", r.groups[1])
				}
				seen := make([]uint64, len(r.words))
				prev, resolved := -1, 0
				for i, in := range r.Inputs {
					if in == nil {
						continue
					}
					g := r.groups[i]
					start := g.w<<6 | int(g.shift)
					if start <= prev {
						t.Fatalf("input %d starts at bit %d, not after input before it (%d)", i, start, prev)
					}
					prev = start
					if int(g.shift)+vcs > 64 || g.mask != in.vmask<<g.shift {
						t.Fatalf("input %d: group %+v straddles or has the wrong mask", i, g)
					}
					if seen[g.w]&g.mask != 0 {
						t.Fatalf("input %d: group %+v overlaps an earlier one (%#x)", i, g, seen[g.w])
					}
					seen[g.w] |= g.mask
					for v, vc := range in.VCs {
						if r.flatVC[start+v] != vc || vc.bit != 1<<uint(int(g.shift)+v) || int(vc.wi) != g.w || int(vc.input) != i || vc.host != r {
							t.Fatalf("input %d vc %d: bit %#x word %d input %d, flatVC[%d]=%v", i, v, vc.bit, vc.wi, vc.input, start+v, r.flatVC[start+v])
						}
						resolved++
					}
				}
				for _, vc := range r.flatVC {
					if vc == nil {
						resolved++ // padding
					}
				}
				if resolved != len(r.flatVC) {
					t.Fatalf("flatVC has %d slots, %d accounted for", len(r.flatVC), resolved)
				}

				// Every VC of every channel but one full: that one must read
				// empty, then exactly the VCs committed into it, and its
				// neighbours full throughout.
				for i, in := range r.Inputs {
					if in == nil {
						continue
					}
					if want := uint64(1) << uint(vcs-1); i == 0 && in.OccMask() != want {
						t.Fatalf("input 0: OccMask %#x after the first Step folded the early flit in, want %#x", in.OccMask(), want)
					}
					for _, vc := range in.VCs {
						for vc.Len() > 0 {
							vc.Dequeue(0)
						}
					}
					for j, other := range r.Inputs {
						if other == nil || j == i {
							continue
						}
						for _, vc := range other.VCs {
							if vc.Len() == 0 {
								fill(vc, mkPacket(j*100+vc.Index, 2), 1, 0)
							}
						}
					}
					r.RebuildState()
					if got := in.OccMask(); got != 0 {
						t.Fatalf("input %d: OccMask %#x with only its neighbours occupied", i, got)
					}
					first, last := in.VCs[0], in.VCs[vcs-1]
					first.Stage(message.Flit{Pkt: mkPacket(1, 2)})
					if vcs > 1 {
						last.Stage(message.Flit{Pkt: mkPacket(2, 2)})
					}
					in.Commit(1)
					in.ResetDerived()
					g := r.groups[i]
					if want := uint64(1) | 1<<uint(vcs-1); in.OccMask() != want || r.words[g.w].occ&g.mask != want<<g.shift {
						t.Fatalf("input %d: OccMask %#x, group %#x of word %#x, want %#x", i, in.OccMask(), g.mask, r.words[g.w].occ, want)
					}
					first.Dequeue(2)
					if vcs > 1 {
						last.Dequeue(2)
					}
					for j, other := range r.Inputs {
						if other != nil && j != i && other.OccMask() != other.vmask {
							t.Fatalf("input %d: OccMask %#x after traffic on input %d, want %#x", j, other.OccMask(), i, other.vmask)
						}
					}
					if in.OccMask() != 0 {
						t.Fatalf("input %d: OccMask %#x after draining it", i, in.OccMask())
					}
				}
			})
		}
	}
}
