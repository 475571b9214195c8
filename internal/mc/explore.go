package mc

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/schemes"
)

// pathMeta is per-path (not per-state) bookkeeping for property
// classification: when the currently live knot formed, and whether a
// detection has reached the scheme since.
type pathMeta struct {
	knotCycle   int64
	detectSince bool
}

// frame is one depth-first branch point: the state to return to, the
// choices not yet tried, and the choice that produced this state from its
// parent (the counterexample schedule is the via-chain of the stack).
type frame struct {
	snap    *network.Snapshot
	choices []Choice
	pm      pathMeta
	via     Choice
	root    bool
}

// stepOnce applies one choice at the current cycle boundary and advances one
// cycle, evaluating the oracle-backed properties. It returns a violation or
// nil.
func (e *Explorer) stepOnce(c Choice, pm *pathMeta) *Violation {
	now := e.n.Clock.Now()
	pre := check.RebuildKnots(e.n)
	if pre.Deadlocked() {
		if pm.knotCycle < 0 {
			pm.knotCycle = now
			pm.detectSince = false
		}
		if e.Kind() == schemes.SA {
			return &Violation{
				Kind:  "avoidance-violated",
				Cycle: now,
				Detail: fmt.Sprintf("strict avoidance reached a true deadlock: %d knotted resources, %d txns in flight",
					pre.LockedCount, e.n.Table.Len()),
			}
		}
	} else {
		pm.knotCycle = -1
	}
	if pm.knotCycle >= 0 && !pm.detectSince && now-pm.knotCycle > e.opt.MissedBound {
		return &Violation{
			Kind:  "missed-deadlock",
			Cycle: now,
			Detail: fmt.Sprintf("true deadlock since cycle %d (%d knotted resources) and no detection reached the scheme within %d cycles",
				pm.knotCycle, pre.LockedCount, e.opt.MissedBound),
		}
	}

	e.apply(c)
	e.detectFired = false
	if e.opt.Bug == BugForgeDetect && now > 0 && now%e.opt.ForgePeriod == 0 {
		ni := e.n.NIs[0]
		if h := ni.Cfg.Hooks.Detect; h != nil {
			h(ni, 0, now)
		}
	}
	if e.opt.Bug == BugForgeProbe && now > 0 && now%e.opt.ForgePeriod == 0 && e.n.Probe != nil {
		e.n.Probe.OnDeclare(e.n.Probe.Layout().InVertex(0, 0), now)
	}
	e.n.Step()
	if e.detectFired {
		e.result.Detections++
		if pm.knotCycle >= 0 {
			pm.detectSince = true
		}
		if e.opt.StrictDetect && !pre.Deadlocked() {
			return &Violation{
				Kind:  "false-detection",
				Cycle: now,
				Detail: fmt.Sprintf("detection reached the scheme at cycle %d but the independent CWG rebuild finds no knot (%d flits in flight)",
					now, e.n.OccupiedFlits()),
			}
		}
	}
	return nil
}

// classifyStuck names the violation for a path that exhausted its cycle
// budget without quiescing.
func (e *Explorer) classifyStuck(pm *pathMeta) *Violation {
	now := e.n.Clock.Now()
	k := check.RebuildKnots(e.n)
	switch {
	case k.Deadlocked() && !pm.detectSince:
		return &Violation{
			Kind:  "missed-deadlock",
			Cycle: now,
			Detail: fmt.Sprintf("cycle budget %d exhausted with %d knotted resources and no detection",
				e.opt.MaxCycles, k.LockedCount),
		}
	case k.Deadlocked():
		return &Violation{
			Kind:  "unrecovered-deadlock",
			Cycle: now,
			Detail: fmt.Sprintf("cycle budget %d exhausted: detection fired but %d resources are still knotted",
				e.opt.MaxCycles, k.LockedCount),
		}
	default:
		return &Violation{
			Kind:  "no-progress",
			Cycle: now,
			Detail: fmt.Sprintf("cycle budget %d exhausted without quiescing (%d txns in flight, no knot)",
				e.opt.MaxCycles, e.n.Table.Len()),
		}
	}
}

// accepted reports whether the live network is in a terminal accepting
// state: everything injected, everything delivered, nothing moving.
func (e *Explorer) accepted() bool {
	return e.src.done() && e.n.Quiescent()
}

// Run explores the full state space depth-first and returns the result. It
// stops at the first violation (recording its replayable schedule) or when
// the space is exhausted or a bound is hit.
func (e *Explorer) Run() *Result {
	e.visited = make(map[uint64]struct{})
	e.result = Result{Complete: true}

	rootSnap := e.n.Snapshot()
	e.visited[e.stateHash()] = struct{}{}
	e.result.States++
	stack := []frame{{snap: rootSnap, choices: e.enumerate(), root: true, pm: pathMeta{knotCycle: -1}}}

	schedule := func(last Choice) []Choice {
		var sched []Choice
		for _, f := range stack[1:] {
			sched = append(sched, f.via)
		}
		return append(sched, last)
	}

	for len(stack) > 0 {
		if len(stack) > e.result.MaxDepth {
			e.result.MaxDepth = len(stack)
		}
		f := &stack[len(stack)-1]
		if len(f.choices) == 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		c := f.choices[len(f.choices)-1]
		f.choices = f.choices[:len(f.choices)-1]

		e.n.Restore(f.snap)
		pm := f.pm
		v := e.stepOnce(c, &pm)
		e.result.Transitions++
		if e.opt.Progress != nil && e.result.Transitions%progressEvery == 0 {
			e.opt.Progress(ProgressInfo{
				States: e.result.States, Transitions: e.result.Transitions,
				Frontier: frontier(stack), Depth: len(stack),
			})
		}

		// Stride through forced cycles until the path terminates, branches,
		// or merges into a visited state.
		for v == nil {
			if e.accepted() {
				e.result.Accepts++
				break
			}
			if e.n.Clock.Now() >= e.opt.MaxCycles {
				v = e.classifyStuck(&pm)
				break
			}
			cs := e.enumerate()
			if len(cs) > 1 {
				h := e.stateHash()
				if _, seen := e.visited[h]; seen {
					break // merged into an explored state
				}
				if int(e.result.States) >= e.opt.MaxStates {
					e.result.Complete = false
					break
				}
				e.visited[h] = struct{}{}
				e.result.States++
				stack = append(stack, frame{snap: e.n.Snapshot(), choices: cs, pm: pm, via: c})
				break
			}
			v = e.stepOnce(cs[0], &pm)
			e.result.Transitions++
		}

		if v != nil {
			e.result.Counterexample = e.buildCounterexample(schedule(c), *v)
			e.result.Complete = false
			break
		}
	}
	return &e.result
}

// frontier counts unexplored choices across the branch stack.
func frontier(stack []frame) int {
	n := 0
	for i := range stack {
		n += len(stack[i].choices)
	}
	return n
}
