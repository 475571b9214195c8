package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRingSinkWraparound(t *testing.T) {
	r := NewRingSink(4)
	for i := 0; i < 7; i++ {
		r.Event(Event{Cycle: int64(i), Kind: KindInject})
	}
	if r.Total != 7 {
		t.Fatalf("total = %d, want 7", r.Total)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(3 + i); e.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (chronological order)", i, e.Cycle, want)
		}
	}
}

func TestRingSinkPartial(t *testing.T) {
	r := NewRingSink(8)
	r.Event(Event{Cycle: 1})
	r.Event(Event{Cycle: 2})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Cycle != 1 || evs[1].Cycle != 2 {
		t.Fatalf("partial ring = %v", evs)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	in := []Event{
		{Cycle: 10, Kind: KindInject, Node: 3, Arg: 5, Txn: 42, MsgType: "m1", Src: 3, Dst: 9},
		{Cycle: 20, Kind: KindTokenCapture, Node: 7},
	}
	for _, e := range in {
		s.Event(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(in) {
		t.Fatalf("%d lines, want %d", len(lines), len(in))
	}
	for i, line := range lines {
		var out Event
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if out != in[i] {
			t.Fatalf("line %d round-tripped to %+v, want %+v", i, out, in[i])
		}
	}
}

// chromeDoc mirrors the top-level trace_event JSON object.
type chromeDoc struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	TraceEvents     []map[string]any `json:"traceEvents"`
}

func TestChromeTraceSinkValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeTraceSink(&buf)
	events := []Event{
		{Kind: KindMeta, Node: -1, Note: "cfg"},
		{Cycle: 5, Kind: KindInject, Node: 1, Arg: 5, Txn: 1, MsgType: "m1", Src: 1, Dst: 2},
		{Cycle: 9, Kind: KindVCStall, Node: 2, Arg: 3, Aux: 1, Pkt: 4},
		{Cycle: 50, Kind: KindCWGScan, Node: -1, Arg: 6, Aux: 1},
		{Cycle: 50, Kind: KindEpisodeOpen, Node: -1, Arg: 0, Aux: 6},
		{Cycle: 60, Kind: KindTokenCapture, Node: 12},
		{Cycle: 90, Kind: KindTokenRelease, Node: 12, Arg: 1},
		{Cycle: 95, Kind: KindEpisodeClose, Node: -1, Arg: 0, Aux: 45, Note: "rescue"},
		{Cycle: 99, Kind: KindDeliver, Node: 2, Arg: 5},
	}
	for _, e := range events {
		s.Event(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != len(events) {
		t.Fatalf("%d trace events, want %d", len(doc.TraceEvents), len(events))
	}
	phases := map[string]int{}
	for _, en := range doc.TraceEvents {
		ph, _ := en["ph"].(string)
		phases[ph]++
	}
	// Token capture/release and episode open/close must form async spans.
	if phases["b"] != 2 || phases["e"] != 2 {
		t.Fatalf("async span phases b=%d e=%d, want 2/2", phases["b"], phases["e"])
	}
	if phases["C"] != 1 {
		t.Fatalf("counter phase count = %d, want 1", phases["C"])
	}
}

func TestSamplerWindows(t *testing.T) {
	var buf bytes.Buffer
	gauges := Gauges{VCOccupancy: 0.25, BlockedMsgs: 3, Outstanding: 7}
	s := NewSampler(&buf, 10, 4, func() Gauges { return gauges })
	for now := int64(0); now < 20; now++ {
		if now == 2 || now == 12 {
			s.Event(Event{Cycle: now, Kind: KindInject, Arg: 5})
		}
		if now == 15 {
			s.Event(Event{Cycle: now, Kind: KindDeliver, Arg: 5})
			s.Event(Event{Cycle: now, Kind: KindTokenCapture})
		}
		s.Tick(now)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + two full windows
		t.Fatalf("%d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "cycle,injected_msgs,") {
		t.Fatalf("bad header: %s", lines[0])
	}
	row1 := strings.Split(lines[1], ",")
	row2 := strings.Split(lines[2], ",")
	if row1[0] != "9" || row2[0] != "19" {
		t.Fatalf("window boundaries %s/%s, want 9/19", row1[0], row2[0])
	}
	if row1[1] != "1" || row1[2] != "5" || row1[3] != "0" {
		t.Fatalf("window 1 counts = %v", row1)
	}
	// Second window: 1 injection, 1 delivery of 5 flits over 4 nodes and 10
	// cycles = 0.125 flits/node/cycle, 1 capture.
	if row2[1] != "1" || row2[3] != "1" || row2[5] != "0.125000" {
		t.Fatalf("window 2 = %v", row2)
	}
	if row2[len(row2)-1] != "1" {
		t.Fatalf("window 2 captures = %s, want 1", row2[len(row2)-1])
	}
	if row1[6] != "0.2500" || row1[7] != "3" || row1[8] != "7" {
		t.Fatalf("gauge columns = %v", row1)
	}
}

func chain2() []WaitResource {
	return []WaitResource{
		{Kind: "vc", Desc: "a", WaitsFor: []int{1}},
		{Kind: "inq", Desc: "b", WaitsFor: []int{0}},
	}
}

// observe and resolved feed the tracker the events a network's scans and
// recovery actions put on the bus.
func observe(tr *EpisodeTracker, now int64, locked int, chain []WaitResource) {
	tr.Chain = func() []WaitResource { return chain }
	tr.Event(Event{Cycle: now, Kind: KindCWGScan, Node: -1, Arg: int64(locked)})
}

func resolved(tr *EpisodeTracker, now int64, how string) {
	kind := map[string]Kind{"rescue": KindTokenCapture, "deflection": KindDeflect, "nack": KindNack}[how]
	tr.Event(Event{Cycle: now, Kind: kind})
}

func TestEpisodeLifecycle(t *testing.T) {
	tr := &EpisodeTracker{}
	observe(tr, 100, 2, chain2())
	ep := tr.Open()
	if ep == nil || ep.Formed != 100 || ep.Resources != 2 {
		t.Fatalf("open episode = %+v", ep)
	}
	if !ep.ClosedCycle() {
		t.Fatal("2-cycle chain must be a closed cycle")
	}
	// A second knot scan while open must not open another episode.
	observe(tr, 150, 2, chain2())
	if len(tr.Episodes()) != 1 {
		t.Fatalf("episodes = %d, want 1", len(tr.Episodes()))
	}
	resolved(tr, 180, "rescue")
	if tr.Open() != nil {
		t.Fatal("episode still open after resolution")
	}
	got := tr.Episodes()
	if len(got) != 1 || got[0].Resolution != "rescue" || got[0].Duration() != 80 {
		t.Fatalf("closed episode = %+v", got[0])
	}
	// A resolution with nothing open is a no-op.
	resolved(tr, 200, "rescue")
	if len(tr.Episodes()) != 1 {
		t.Fatal("spurious episode from idle resolution")
	}
	// Dissolution path.
	observe(tr, 250, 1, chain2()[:1])
	observe(tr, 300, 0, nil)
	got = tr.Episodes()
	if len(got) != 2 || got[1].Resolution != "dissolved" {
		t.Fatalf("dissolved episode = %+v", got[len(got)-1])
	}
}

func TestEpisodeEviction(t *testing.T) {
	tr := &EpisodeTracker{MaxKept: 2}
	for i := 0; i < 4; i++ {
		observe(tr, int64(i*100), 1, chain2()[:1])
		resolved(tr, int64(i*100+10), "rescue")
	}
	if len(tr.Episodes()) != 2 || tr.Dropped() != 2 {
		t.Fatalf("kept %d dropped %d, want 2/2", len(tr.Episodes()), tr.Dropped())
	}
	if tr.Episodes()[0].ID != 2 {
		t.Fatalf("oldest kept = %d, want 2 (newest retained)", tr.Episodes()[0].ID)
	}
}

func TestEpisodeWriteJSON(t *testing.T) {
	tr := &EpisodeTracker{}
	observe(tr, 100, 2, chain2())
	resolved(tr, 140, "deflection")
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var ep Episode
	if err := json.Unmarshal(buf.Bytes(), &ep); err != nil {
		t.Fatalf("episode JSON invalid: %v", err)
	}
	if ep.Resolution != "deflection" || len(ep.Chain) != 2 || ep.Chain[0].WaitsFor[0] != 1 {
		t.Fatalf("round-tripped episode = %+v", ep)
	}
}

func TestClosedCycle(t *testing.T) {
	e := &Episode{Chain: chain2()}
	if !e.ClosedCycle() {
		t.Fatal("mutual wait must be closed")
	}
	// A member waiting on nothing breaks closure.
	e.Chain[1].WaitsFor = nil
	if e.ClosedCycle() {
		t.Fatal("dangling member must not be closed")
	}
	// Out-of-bounds edges break closure.
	e.Chain[1].WaitsFor = []int{5}
	if e.ClosedCycle() {
		t.Fatal("out-of-bounds edge must not be closed")
	}
	if (&Episode{}).ClosedCycle() {
		t.Fatal("empty chain must not be closed")
	}
}

func TestBusFanoutAndMeta(t *testing.T) {
	a, b := NewRingSink(8), NewRingSink(8)
	bus := NewBus(a)
	bus.Add(b)
	bus.Emit(Event{Kind: KindMeta, Node: -1, Note: "hello"})
	bus.Emit(Event{Cycle: 1, Kind: KindInject})
	if a.Total != 2 || b.Total != 2 {
		t.Fatalf("fanout totals %d/%d, want 2/2", a.Total, b.Total)
	}
	if evs := a.Events(); evs[0].Kind != KindMeta || evs[0].Note != "hello" {
		t.Fatalf("meta event = %+v", evs[0])
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
}
