// Package token implements the circulating-token mechanism of Disha
// Sequential as extended by the paper: a single token tours every router
// (and, by extension, the network interfaces attached to each router) on a
// configurable logical ring; a node holding a potentially deadlocked message
// captures it, gaining exclusive use of the deadlock-buffer recovery lane;
// during a rescue the token travels with the rescued message and may be
// reused for subordinate messages; the capturing node finally releases it
// for re-circulation.
//
// The package models token position and possession; the rescue state machine
// that exercises it lives in the network layer, which owns the routers and
// network interfaces.
package token

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/topology"
)

// Manager tracks the token.
type Manager struct {
	t *topology.Torus
	// pos is the router the token is at (when circulating) or was captured
	// at (when held).
	pos topology.NodeID
	// held marks the token as captured by a rescue in progress.
	held bool
	// hopCycles is the time to advance one ring position; the paper
	// multiplexes the token over network bandwidth as a control packet, so
	// one cycle per hop is the natural model.
	hopCycles int
	ctr       int

	// lost marks the token as dropped by a fault; a lost token neither
	// circulates nor captures until Regenerate is called.
	lost bool

	// epoch numbers token generations, starting at 1. Each regeneration
	// bumps it, so a resurfacing copy of an older generation (a delayed
	// in-flight control packet from before the loss was declared) is
	// recognizably stale and discarded rather than yielding two live
	// tokens — which would break Disha's one-rescue-at-a-time exclusivity.
	epoch uint64

	// regenTimeout is the watchdog threshold: consecutive lost cycles
	// before Maintain re-elects a token. Zero disables the watchdog.
	regenTimeout int64
	// lostCycles counts consecutive cycles the token has been lost,
	// feeding the watchdog and the OutageCycles statistic.
	lostCycles int64

	// Captures and Releases count token lifecycle events for statistics;
	// Losses and Regenerations count injected faults and recoveries.
	Captures      int64
	Releases      int64
	Losses        int64
	Regenerations int64
	// OutageCycles accumulates cycles spent with no live token (recovery
	// latency in the FaultSweep sense); Resurfaces counts lost tokens that
	// reappeared before regeneration; StaleDiscards counts resurfacing
	// copies of a superseded epoch that were thrown away.
	OutageCycles  int64
	Resurfaces    int64
	StaleDiscards int64
}

// NewManager creates a token circulating from router 0.
func NewManager(t *topology.Torus, hopCycles int) *Manager {
	if hopCycles < 1 {
		panic("token: hopCycles must be >= 1")
	}
	return &Manager{t: t, hopCycles: hopCycles, epoch: 1}
}

// Epoch returns the token's generation number (1 for the original token,
// incremented by every watchdog regeneration).
func (m *Manager) Epoch() uint64 { return m.epoch }

// SetRegenTimeout arms (or, with 0, disarms) the regeneration watchdog:
// after timeout consecutive lost cycles, Maintain re-elects a token.
func (m *Manager) SetRegenTimeout(timeout int64) {
	if timeout < 0 {
		panic("token: negative regen timeout")
	}
	m.regenTimeout = timeout
}

// RegenTimeout returns the current watchdog threshold (0 = disarmed).
func (m *Manager) RegenTimeout() int64 { return m.regenTimeout }

// Held reports whether the token is captured.
func (m *Manager) Held() bool { return m.held }

// Pos returns the router the token currently occupies.
func (m *Manager) Pos() topology.NodeID { return m.pos }

// Step advances a circulating token. It returns the router the token sits at
// after this cycle and whether it arrived there this cycle (captures are
// only attempted on arrival, or on the first cycle at the start position).
// Step panics if called while the token is held: a held token moves with the
// rescue, not the ring.
func (m *Manager) Step() (at topology.NodeID, arrived bool) {
	if m.held {
		panic("token: Step while held")
	}
	if m.lost {
		return m.pos, false
	}
	m.ctr++
	if m.ctr >= m.hopCycles {
		m.ctr = 0
		m.pos = m.t.RingNext(m.pos)
		return m.pos, true
	}
	return m.pos, false
}

// Capture seizes the token at its current ring position for a rescue.
func (m *Manager) Capture() {
	if m.held {
		panic("token: double capture")
	}
	if m.lost {
		panic("token: capture of a lost token")
	}
	m.held = true
	m.Captures++
}

// Release returns the token to circulation from the router where the rescue
// concluded (the paper re-circulates it from the capturing node; pos lets
// the caller restore it there).
func (m *Manager) Release(pos topology.NodeID) {
	if !m.held {
		panic("token: release without capture")
	}
	m.held = false
	m.pos = pos
	m.ctr = 0
	m.Releases++
}

// Lose injects a token-loss fault (the single-point-of-failure the paper's
// Section 3 flags as the technique's main reliability concern). Only a
// circulating token can be lost in this model — a held token's loss would
// abandon a rescue mid-flight, which the paper's reliable token-management
// assumption (control packets with end-to-end protection during rescues)
// rules out.
func (m *Manager) Lose() {
	if m.held {
		panic("token: cannot lose a held token")
	}
	if m.lost {
		return
	}
	m.lost = true
	m.lostCycles = 0
	m.Losses++
}

// Lost reports whether the token is currently missing.
func (m *Manager) Lost() bool { return m.lost }

// Regenerate recreates a lost token at the given router, as the paper's
// configurable logical token path permits ("the path taken by the token can
// be logical and, thus, configurable ... to increase reliability").
func (m *Manager) Regenerate(pos topology.NodeID) {
	if !m.lost {
		panic("token: regenerate without loss")
	}
	m.lost = false
	m.pos = pos
	m.ctr = 0
	m.lostCycles = 0
	m.epoch++
	m.Regenerations++
}

// Maintain runs one watchdog cycle while the token is lost: it accounts the
// outage and, once the loss has persisted for the configured timeout,
// re-elects a token at router 0 (the ring origin — every node can compute it,
// so a distributed election would agree on it). A no-op when the token is
// live or the watchdog is disarmed.
func (m *Manager) Maintain(now int64) {
	if !m.lost {
		return
	}
	m.lostCycles++
	m.OutageCycles++
	if m.regenTimeout > 0 && m.lostCycles >= m.regenTimeout {
		m.Regenerate(0)
	}
	_ = now
}

// Resurface models a delayed copy of the token control packet reappearing at
// router pos. If the loss is still outstanding the token is simply reinstated
// there — same epoch, no re-election needed — and Resurface returns true. If
// a watchdog regeneration already superseded it, the copy is stale: it is
// discarded (counted in StaleDiscards) so the network never sees two live
// tokens, and Resurface returns false.
func (m *Manager) Resurface(pos topology.NodeID) bool {
	if !m.lost {
		m.StaleDiscards++
		return false
	}
	m.lost = false
	m.pos = pos
	m.ctr = 0
	m.lostCycles = 0
	m.Resurfaces++
	return true
}

func (m *Manager) String() string {
	state := "circulating"
	if m.held {
		state = "held"
	}
	return fmt.Sprintf("token{%s at %d}", state, m.pos)
}

// Checkpoint names the manager's canonical state (see package ckpt).
func (m *Manager) Checkpoint(c *ckpt.C) {
	ckpt.Int(c, &m.pos)
	c.Bool(&m.held)
	ckpt.Int(c, &m.ctr)
	c.Bool(&m.lost)
	ckpt.Int(c, &m.epoch)
	ckpt.Int(c, &m.lostCycles)
	if c.Unhashed() {
		for _, p := range []*int64{&m.Captures, &m.Releases, &m.Losses, &m.Regenerations,
			&m.OutageCycles, &m.Resurfaces, &m.StaleDiscards} {
			ckpt.Int(c, p)
		}
	}
}
