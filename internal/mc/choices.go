package mc

import "math/bits"

// Choice is one resolved bundle of nondeterminism at a cycle boundary: which
// scripted transactions to release, how far to rotate every round-robin
// cursor, and whether to defer the recovery engine one cycle. The zero Rot
// and false DelayRescue are identities; an empty Inject releases nothing.
type Choice struct {
	Cycle       int64 `json:"cycle"`
	Inject      []int `json:"inject,omitempty"`
	Rot         int   `json:"rot,omitempty"`
	DelayRescue bool  `json:"delay_rescue,omitempty"`
}

// enumerate lists every choice available at the network's current cycle
// boundary, in a deterministic order. A single-element result means the
// cycle is forced (no branching) — the explorer strides through it without
// creating a state.
func (e *Explorer) enumerate() []Choice {
	now := e.n.Clock.Now()

	// Injection: specs past their window are forced in, specs within it
	// are optional — every subset of the optional set branches.
	var optional, forced []int
	for i := range e.src.specs {
		if e.src.released[i] {
			continue
		}
		sp := &e.src.specs[i]
		switch {
		case now >= sp.Earliest+e.opt.InjectWindow:
			forced = append(forced, i)
		case now >= sp.Earliest:
			optional = append(optional, i)
		}
	}
	injSets := [][]int{forced}
	for _, sub := range subsets(optional) {
		if len(sub) == 0 {
			continue // forced-only set already present
		}
		injSets = append(injSets, append(append([]int(nil), forced...), sub...))
	}

	rots := 1
	if e.opt.Rotations > 1 && e.contended() {
		rots = e.opt.Rotations
	}

	delays := []bool{false}
	if e.opt.DelayRescue && e.rescuePending() {
		delays = []bool{false, true}
	}

	out := make([]Choice, 0, len(injSets)*rots*len(delays))
	for _, inj := range injSets {
		for r := 0; r < rots; r++ {
			for _, d := range delays {
				out = append(out, Choice{Cycle: now, Inject: inj, Rot: r, DelayRescue: d})
			}
		}
	}
	return out
}

// subsets returns every subset of items (including the empty one) in a
// deterministic order. Items are explorer-released transaction indices, so
// len(items) is at most the script length (1–2 in practice).
func subsets(items []int) [][]int {
	out := make([][]int, 0, 1<<len(items))
	for mask := 0; mask < 1<<len(items); mask++ {
		var sub []int
		for i, it := range items {
			if mask>>i&1 == 1 {
				sub = append(sub, it)
			}
		}
		out = append(out, sub)
	}
	return out
}

// contended reports whether any arbiter in the system has two or more
// competitors this cycle, i.e. whether rotating the round-robin cursors can
// change the outcome. This over-approximates (occupied VCs at one router
// need not compete for the same output), which costs redundant branches the
// visited set absorbs, never missed interleavings.
func (e *Explorer) contended() bool {
	for _, r := range e.n.Routers {
		if !r.ActiveStateReady() {
			continue
		}
		occ := 0
		for i := range r.Inputs {
			if r.Inputs[i] != nil {
				occ += bits.OnesCount64(r.Inputs[i].OccMask())
			}
		}
		if occ >= 2 {
			return true
		}
	}
	for _, ni := range e.n.NIs {
		ej := 0
		if ni.Eject != nil {
			for _, vc := range ni.Eject.VCs {
				if vc.Len() > 0 {
					ej++
				}
			}
		}
		inQ, outQ := 0, 0
		for q := 0; q < ni.Cfg.Queues; q++ {
			if ni.InQueueLen(q) > 0 {
				inQ++
			}
			if ni.OutQueueLen(q) > 0 {
				outQ++
			}
		}
		if ej >= 2 || inQ >= 2 || outQ >= 2 {
			return true
		}
	}
	return false
}

// rescuePending reports whether recovery is about to start: some endpoint
// has requested rescue service while no rescue holds the token. The delay branch is
// restricted to this moment (not every cycle of an active rescue) to bound
// the choice tree; it is exactly the detection-to-recovery handoff whose
// timing the paper's schemes disagree about.
func (e *Explorer) rescuePending() bool {
	if e.n.Rescue == nil || e.n.Rescue.Active() {
		return false
	}
	for _, ni := range e.n.NIs {
		if ni.WantRescue {
			return true
		}
	}
	return false
}

// apply commits a choice to the live network; the next Step consumes it.
func (e *Explorer) apply(c Choice) {
	for _, i := range c.Inject {
		e.src.released[i] = true
	}
	if c.Rot != 0 {
		for _, r := range e.n.Routers {
			r.RotateArb(c.Rot)
		}
		for _, ni := range e.n.NIs {
			ni.RotateArb(c.Rot)
		}
	}
	if c.DelayRescue {
		e.n.DeferRescue(1)
	}
}
