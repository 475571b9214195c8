package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WaitResource is one blocked resource in a deadlock episode's wait chain:
// a virtual channel or an endpoint queue, its occupant message, how long it
// has been blocked, and which other chain members it waits for. The
// channel-wait-for-graph detector builds these when forensics are enabled.
type WaitResource struct {
	// Kind is "vc", "inq", or "outq".
	Kind string `json:"kind"`
	// Desc is a human-readable resource label (e.g. "link[5→]vc1",
	// "ni12.in0").
	Desc string `json:"desc"`
	// Router is the router owning (consuming) the resource.
	Router int `json:"router"`
	// Endpoint and Queue locate NI queue resources (-1 for VCs).
	Endpoint int `json:"endpoint"`
	Queue    int `json:"queue"`
	// VC is the virtual-channel index (-1 for queues).
	VC int `json:"vc"`
	// Occupant message identity: the packet/transaction blocked at the
	// head of this resource.
	Pkt     int64  `json:"pkt,omitempty"`
	Txn     int64  `json:"txn,omitempty"`
	MsgType string `json:"type,omitempty"`
	Src     int    `json:"src,omitempty"`
	Dst     int    `json:"dst,omitempty"`
	// BlockedFor is cycles since the resource last made progress (-1 when
	// unknown — queue resources do not track movement timestamps).
	BlockedFor int64 `json:"blocked_for"`
	// WaitsFor indexes the chain entries this resource waits on.
	WaitsFor []int `json:"waits_for"`
}

// Episode is one deadlock episode: from the scan that first observed a knot
// to the recovery action (or spontaneous dissolution) that ended it.
type Episode struct {
	ID int `json:"id"`
	// Formed is the cycle the knot was first observed; Resolved the cycle
	// it ended (-1 while open).
	Formed   int64 `json:"formed"`
	Resolved int64 `json:"resolved"`
	// Resolution is "rescue", "deflection", "nack", "dissolved", or
	// "open".
	Resolution string `json:"resolution"`
	// Resources is the deadlocked resource count reported by the scan that
	// opened the episode.
	Resources int `json:"resources"`
	// Chain is the wait-chain snapshot taken at formation.
	Chain []WaitResource `json:"chain"`
}

// Duration returns the episode length in cycles, -1 while open.
func (e *Episode) Duration() int64 {
	if e.Resolved < 0 {
		return -1
	}
	return e.Resolved - e.Formed
}

// ClosedCycle reports whether the snapshot is a closed wait structure: the
// chain is non-empty and every member waits only on other members (the
// defining knot property — no wait-for path escapes the set). This is the
// consistency check tying episode forensics back to the CWG detection.
func (e *Episode) ClosedCycle() bool {
	if len(e.Chain) == 0 {
		return false
	}
	for _, r := range e.Chain {
		if len(r.WaitsFor) == 0 {
			return false
		}
		for _, w := range r.WaitsFor {
			if w < 0 || w >= len(e.Chain) {
				return false
			}
		}
	}
	return true
}

// Format renders the episode as an indented human-readable block.
func (e *Episode) Format() string {
	var b strings.Builder
	res := e.Resolution
	if res == "" {
		res = "open"
	}
	dur := "open"
	if e.Resolved >= 0 {
		dur = fmt.Sprintf("%d cycles", e.Duration())
	}
	fmt.Fprintf(&b, "episode %d: formed @%d, %s (%s), %d deadlocked resources\n",
		e.ID, e.Formed, res, dur, e.Resources)
	for i, r := range e.Chain {
		occ := ""
		if r.Txn != 0 || r.MsgType != "" {
			occ = fmt.Sprintf(" holds txn=%d %s %d->%d", r.Txn, r.MsgType, r.Src, r.Dst)
		}
		blocked := ""
		if r.BlockedFor >= 0 {
			blocked = fmt.Sprintf(" blocked=%dcy", r.BlockedFor)
		}
		fmt.Fprintf(&b, "  [%d] %-4s %-14s%s%s waits-for=%v\n", i, r.Kind, r.Desc, occ, blocked, r.WaitsFor)
	}
	return b.String()
}

// EpisodeTracker is a Sink that turns the CWG scans and recovery actions it
// sees on the bus into episode records. Lifecycle: a scan reporting deadlocked
// resources while no episode is open opens one (snapshotting the wait chain);
// the first recovery action afterwards closes it with its resolution kind; a
// scan reporting zero deadlocked resources closes a still-open episode as
// "dissolved". Durations are therefore quantized to the scan interval at the
// formation edge, matching the paper's detection granularity.
type EpisodeTracker struct {
	// Bus, when non-nil, receives episode-open/close events (for the
	// Chrome trace's episode spans). Network.AttachEpisodes sets it to the
	// bus the tracker sits on.
	Bus *Bus
	// Chain returns the wait chain of the knot the scan just reported (the
	// CWG detector's KnotChain); nil leaves episodes without a chain.
	Chain func() []WaitResource
	// MaxKept bounds retained closed episodes (0 = default 4096); the
	// newest are kept.
	MaxKept int

	episodes []*Episode
	open     *Episode
	dropped  int64
	nextID   int
}

// Event implements Sink. Behind the recording sinks, where
// Network.AttachEpisodes puts the tracker, an episode's own events follow the
// events that cause them.
func (t *EpisodeTracker) Event(e Event) {
	switch e.Kind {
	case KindCWGScan:
		// A scan that found fresh knots says so next; the episode opens
		// after that.
		if e.Aux == 0 {
			t.observe(e.Cycle, int(e.Arg))
		}
	case KindCWGDeadlock:
		t.observe(e.Cycle, int(e.Arg))
	case KindTokenCapture:
		t.close(e.Cycle, "rescue")
	case KindDeflect:
		t.close(e.Cycle, "deflection")
	case KindNack:
		t.close(e.Cycle, "nack")
	}
}

// Early is the tracker as a sink that hears only token-capture. Ahead of the
// recording sinks it closes the episode before the rescue that ends it is
// recorded — the order traces have always had — and the tracker itself,
// behind them, then finds nothing open.
func (t *EpisodeTracker) Early() Sink { return early{t} }

type early struct{ t *EpisodeTracker }

func (s early) Event(e Event) {
	if e.Kind == KindTokenCapture {
		s.t.Event(e)
	}
}

// observe takes one scan result: the deadlocked resource count.
func (t *EpisodeTracker) observe(now int64, locked int) {
	if locked == 0 {
		t.close(now, "dissolved")
		return
	}
	if t.open != nil {
		return
	}
	t.open = &Episode{
		ID: t.nextID, Formed: now, Resolved: -1, Resolution: "open", Resources: locked,
	}
	if t.Chain != nil {
		t.open.Chain = t.Chain()
	}
	t.nextID++
	if t.Bus != nil {
		t.Bus.Emit(Event{Cycle: now, Kind: KindEpisodeOpen, Node: -1,
			Arg: int64(t.open.ID), Aux: int64(locked)})
	}
}

// close ends the open episode, if any, as resolved by how ("rescue",
// "deflection", "nack" or "dissolved").
func (t *EpisodeTracker) close(now int64, how string) {
	ep := t.open
	if ep == nil {
		return
	}
	t.open = nil
	ep.Resolved = now
	ep.Resolution = how
	max := t.MaxKept
	if max <= 0 {
		max = 4096
	}
	if len(t.episodes) >= max {
		t.episodes = t.episodes[1:]
		t.dropped++
	}
	t.episodes = append(t.episodes, ep)
	if t.Bus != nil {
		t.Bus.Emit(Event{Cycle: now, Kind: KindEpisodeClose, Node: -1,
			Arg: int64(ep.ID), Aux: ep.Duration(), Note: how})
	}
}

// Episodes returns the closed episodes in formation order, plus the open
// one (if any) last.
func (t *EpisodeTracker) Episodes() []*Episode {
	out := append([]*Episode(nil), t.episodes...)
	if t.open != nil {
		out = append(out, t.open)
	}
	return out
}

// Open returns the currently open episode, nil if none.
func (t *EpisodeTracker) Open() *Episode { return t.open }

// Dropped returns how many closed episodes were evicted by MaxKept.
func (t *EpisodeTracker) Dropped() int64 { return t.dropped }

// WriteJSON writes every recorded episode as one JSON object per line.
func (t *EpisodeTracker) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ep := range t.Episodes() {
		if err := enc.Encode(ep); err != nil {
			return err
		}
	}
	return nil
}
