package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Parent is the index of the span that caused it (-1 for an op's
// root span); spans of one op share Op, the op's ordinal within the pass.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// recorder keeps a traced pass's spans in memory. A nil recorder is the
// untraced run: begin and end reduce to one branch.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, -1 when tracing is off.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, StartNs: int64(time.Since(r.t0)), Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].EndNs = int64(time.Since(r.t0))
}

// add records a span whose duration was measured elsewhere (the job spans
// the service reports carry no timestamps): it is laid at start and the end
// it occupies is returned so siblings can be placed back to back.
func (r *recorder) add(name string, parent, op int, start, dur int64) int64 {
	if r == nil {
		return start
	}
	r.spans = append(r.spans, span{Name: name, StartNs: start, EndNs: start + dur, Parent: parent, Op: op})
	return start + dur
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. The harness is one goroutine, so
// siblings never overlap and the covered part is the clipped sum.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}

// selfByName sums self times per span name, in nanoseconds.
func selfByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// durationsOf lists the durations (ns) of every span called name.
func durationsOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}

// writeJSON writes v to dir/name, creating dir.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
