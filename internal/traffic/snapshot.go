package traffic

import "fmt"

// Snapshot/restore support for the model-checking explorer. Sources carry
// run-specific state (per-endpoint RNG streams, outstanding MSHR counts)
// that must rewind with the rest of the network; the network snapshot
// orchestrator captures any source implementing the two methods below
// (custom finite sources implement the same pair).

// SyntheticState is the synthetic source's mutable state. The streams have
// been drawn past the present, so where each endpoint's look-ahead stopped
// (NextAt, Hit) and the cycle the source expects next are as canonical as the
// streams themselves: a restore without them would replay different arrivals.
type SyntheticState struct {
	Generated   int64
	Throttled   int64
	Outstanding []int
	RNGStates   [][4]uint64
	NextAt      []int64
	Hit         []bool
	Next        int64
}

// CaptureSourceState snapshots the source, including every per-endpoint RNG
// stream so post-restore generation replays identically.
func (s *Synthetic) CaptureSourceState() any {
	st := SyntheticState{
		Generated:   s.Generated,
		Throttled:   s.Throttled,
		Outstanding: append([]int(nil), s.outstanding...),
		RNGStates:   make([][4]uint64, len(s.rngs)),
		NextAt:      append([]int64(nil), s.nextAt...),
		Hit:         append([]bool(nil), s.hit...),
		Next:        s.next,
	}
	for i := range s.rngs {
		st.RNGStates[i] = s.rngs[i].State()
	}
	return st
}

// RestoreSourceState writes a captured state back.
func (s *Synthetic) RestoreSourceState(state any) {
	st, ok := state.(SyntheticState)
	if !ok {
		panic(fmt.Sprintf("traffic: foreign source state %T", state))
	}
	s.Generated = st.Generated
	s.Throttled = st.Throttled
	copy(s.outstanding, st.Outstanding)
	for i := range s.rngs {
		s.rngs[i].SetState(st.RNGStates[i])
	}
	copy(s.nextAt, st.NextAt)
	copy(s.hit, st.Hit)
	s.next = st.Next
	s.soonest = st.Next // the next Generate recomputes it
}
