package cluster

import "sync/atomic"

// BreakerState is a backend's health bit.
type BreakerState int32

const (
	// BreakerClosed: the backend is up and requests flow to it.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the backend is down; requests route around it until a
	// probe succeeds.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "unknown"
	}
}

// Breaker is a per-backend two-state circuit breaker. The first failed probe
// or proxied call opens it; only the next successful probe closes it. There
// is no trial request: a request let through to a hung backend would wait out
// the client timeout while the backend still counted as live. The zero value
// is closed.
type Breaker struct {
	state    atomic.Int32 // a BreakerState
	onChange func(from, to BreakerState)
}

// ReportSuccess records a successful probe: an open breaker closes.
func (b *Breaker) ReportSuccess() { b.flip(BreakerOpen, BreakerClosed) }

// ReportFailure records a failed probe or proxied call: a closed breaker
// opens.
func (b *Breaker) ReportFailure() { b.flip(BreakerClosed, BreakerOpen) }

// State returns the current position.
func (b *Breaker) State() BreakerState { return BreakerState(b.state.Load()) }

// flip moves the breaker from one state to the other and fires the change
// hook, once per transition however many reports race.
func (b *Breaker) flip(from, to BreakerState) {
	if b.state.CompareAndSwap(int32(from), int32(to)) && b.onChange != nil {
		b.onChange(from, to)
	}
}
