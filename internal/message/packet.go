package message

import "repro/internal/ckpt"

// PacketID identifies a packet for the lifetime of a run.
type PacketID int64

// Packet is the network-level routable unit: one packet per message. The
// packet tracks wormhole progress (which flits have been injected and
// ejected) while per-hop buffering lives in the router's virtual channels.
type Packet struct {
	ID  PacketID
	Msg *Message

	// SentFlits counts flits that have left the source NI (0..Msg.Flits).
	SentFlits int
	// ArrivedFlits counts flits that reached the destination NI.
	ArrivedFlits int

	// BeingRescued is set while the packet travels the Disha recovery lane;
	// its normal-network resources are drained/released by the rescue
	// machinery.
	BeingRescued bool

	// pooled guards against double-free through a Pool.
	pooled bool
}

// Pooled reports whether the packet currently sits on a Pool free list (see
// Message.Pooled; used by the runtime invariant checker to detect
// use-after-release).
func (p *Packet) Pooled() bool { return p.pooled }

// Flit is a single flow-control unit in some buffer. Flits carry their
// packet and index; index 0 is the header and index Msg.Flits-1 the tail.
type Flit struct {
	Pkt *Packet
	Idx int
}

// Head reports whether this is the packet's header flit.
func (f Flit) Head() bool { return f.Idx == 0 }

// Tail reports whether this is the packet's tail flit. A single-flit packet
// is both head and tail.
func (f Flit) Tail() bool { return f.Idx == f.Pkt.Msg.Flits-1 }

// Checkpoint names the packet's canonical fields (see package ckpt).
func (p *Packet) Checkpoint(c *ckpt.C) {
	ckpt.Int(c, &p.ID)
	ckpt.Int(c, &p.SentFlits)
	ckpt.Int(c, &p.ArrivedFlits)
	c.Bool(&p.BeingRescued)
	ckpt.Ref(c, &p.Msg)
}
