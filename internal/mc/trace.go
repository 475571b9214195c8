package mc

import (
	"encoding/json"
	"fmt"

	"repro/internal/check"
)

// Counterexample is a complete, self-contained violating run: the options the
// exploration ran under (the network, the scripted workload, the
// nondeterminism model), the branch schedule, and the violation it leads to.
// Applying Schedule's choices at branch points (all other cycles are forced)
// deterministically reproduces Violation. The file is this struct's JSON; the
// "cfg" object is the network's own text form (network.Config), minus the run
// phases and rate, which the explorer owns.
type Counterexample struct {
	Version int `json:"version"`
	Options
	Schedule  []Choice  `json:"schedule"`
	Violation Violation `json:"violation"`
}

func (e *Explorer) buildCounterexample(sched []Choice, v Violation) *Counterexample {
	opt := e.opt
	opt.Net.Rate, opt.Net.Warmup, opt.Net.Measure, opt.Net.MaxDrain = 0, 0, 0, 0
	opt.Progress = nil // a replay reports nothing, and the file outlives the caller
	return &Counterexample{Version: 1, Options: opt, Schedule: sched, Violation: v}
}

// Encode renders the counterexample as stable, human-diffable JSON.
func (cx *Counterexample) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(cx, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeCounterexample parses a serialized counterexample and refuses one
// whose network the explorer could not build.
func DecodeCounterexample(data []byte) (*Counterexample, error) {
	var cx Counterexample
	if err := json.Unmarshal(data, &cx); err != nil {
		return nil, fmt.Errorf("mc: bad counterexample: %w", err)
	}
	if cx.Version != 1 {
		return nil, fmt.Errorf("mc: unsupported counterexample version %d", cx.Version)
	}
	cfg := ownRun(cx.Net)
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("mc: bad counterexample: %w", err)
	}
	return &cx, nil
}

func choiceEq(a, b Choice) bool {
	if a.Cycle != b.Cycle || a.Rot != b.Rot || a.DelayRescue != b.DelayRescue ||
		len(a.Inject) != len(b.Inject) {
		return false
	}
	for i := range a.Inject {
		if a.Inject[i] != b.Inject[i] {
			return false
		}
	}
	return true
}

// followPath drives the network from its current state down one path to its
// end: at forced cycles it takes the single available choice, at branch
// points the one pick returns. It returns the violation the path ends in, or
// nil if the path quiesces cleanly within the cycle budget.
func (e *Explorer) followPath(pick func(cs []Choice) (Choice, error)) (*Violation, error) {
	e.judge = check.Judge{Since: -1}
	for !e.accepted() {
		if e.n.Clock.Now() >= e.opt.MaxCycles {
			return e.stuck(), nil
		}
		cs := e.enumerate()
		c := cs[0]
		if len(cs) > 1 {
			var err error
			if c, err = pick(cs); err != nil {
				return nil, err
			}
		}
		if v := e.stepOnce(c); v != nil {
			return v, nil
		}
	}
	return nil, nil
}

// ReplaySchedule drives the explorer's network down exactly one path: at
// branch points the next schedule entry is consumed (it must be one of the
// enumerated choices — anything else means the schedule does not belong to
// this configuration).
func (e *Explorer) ReplaySchedule(sched []Choice) (*Violation, error) {
	return e.followPath(func(cs []Choice) (Choice, error) {
		if len(sched) == 0 {
			return Choice{}, fmt.Errorf("mc: schedule exhausted at branch point, cycle %d (%d choices)",
				e.n.Clock.Now(), len(cs))
		}
		c := sched[0]
		sched = sched[1:]
		for _, cand := range cs {
			if choiceEq(c, cand) {
				return c, nil
			}
		}
		return Choice{}, fmt.Errorf("mc: schedule entry for cycle %d is not an available choice (cycle now %d)",
			c.Cycle, e.n.Clock.Now())
	})
}

// Replay rebuilds a counterexample's network and runs its schedule,
// returning the violation it reproduces. A nil violation or a kind mismatch
// means the counterexample no longer reproduces against this build.
func Replay(cx *Counterexample) (*Violation, error) {
	e, err := New(cx.Options)
	if err != nil {
		return nil, err
	}
	return e.ReplaySchedule(cx.Schedule)
}
