package mc

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/network"
)

// frame is one depth-first branch point: the state to return to, the
// choices not yet tried, the path's recovery judge (per path, not per
// state), and the choice that produced this state from its parent (the
// counterexample schedule is the via-chain of the stack).
type frame struct {
	snap    *network.Snapshot
	choices []Choice
	judge   check.Judge
	via     Choice
	root    bool
}

// stepOnce applies one choice at the current cycle boundary and advances one
// cycle, judging the boundary and the cycle's dispatches with the path's
// judge, e.judge. It returns a violation or nil.
func (e *Explorer) stepOnce(c Choice) *Violation {
	now := e.n.Clock.Now()
	pre, v := e.judge.Boundary(e.n, now)
	if v != nil {
		return violation(now, *v)
	}

	e.apply(c)
	e.dispatched, e.unsound = false, nil
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
	if e.dispatched {
		e.result.Detections++
		if e.opt.StrictDetect && !pre.Deadlocked() {
			return &Violation{
				Kind:  "false-detection",
				Cycle: now,
				Detail: fmt.Sprintf("detection reached the scheme at cycle %d but the independent CWG rebuild finds no knot (%d flits in flight)",
					now, e.n.OccupiedFlits()),
			}
		}
	}
	return e.unsound
}

// violation is the judge's verdict v at cycle now.
func violation(now int64, v check.Verdict) *Violation {
	return &Violation{Kind: v.Rule, Cycle: now, Detail: v.Detail}
}

// stuck judges a path that exhausted its cycle budget without quiescing.
func (e *Explorer) stuck() *Violation {
	return violation(e.n.Clock.Now(), e.judge.Stuck(e.n))
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
	stack := []frame{{snap: rootSnap, choices: e.enumerate(), root: true, judge: check.Judge{Since: -1}}}

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
		e.judge = f.judge
		v := e.stepOnce(c)
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
				v = e.stuck()
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
				stack = append(stack, frame{snap: e.n.Snapshot(), choices: cs, judge: e.judge, via: c})
				break
			}
			v = e.stepOnce(cs[0])
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
