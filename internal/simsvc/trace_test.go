package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestTraceNamesTheJobOnEveryLine: simserve -trace used to share one JSONL sink
// among all workers and bracket each job's stream with job-accepted/-start/-done
// marker events, but -workers defaults to GOMAXPROCS and obs.Event carries no
// job identity, so with two overlapping jobs no simulation event in the file
// could be attributed to either. Two distinct specs are held until both are
// running on two workers; every line of the trace must then parse and name its
// job, every machine event must belong to exactly one of the two with its
// cycles in order, and each job must close with exactly one job record carrying
// the request ID and spans its GET /v1/runs/{id} view reports.
func TestTraceNamesTheJobOnEveryLine(t *testing.T) {
	var file bytes.Buffer
	tw := NewTraceWriter(&file)
	var running sync.WaitGroup
	running.Add(2)
	srv, sched := newTestServer(t, SchedConfig{Workers: 2, QueueDepth: 4, Trace: tw,
		Exec: func(ctx context.Context, spec RunSpec, bus *obs.Bus) ([]byte, error) {
			running.Done()
			running.Wait() // neither simulates until both are on a worker
			return Execute(ctx, spec, bus)
		}})

	views := map[string]JobView{}
	for i, body := range []string{
		`{"scheme":"PR","pattern":"PAT271","radix":[2,2],"vcs":2,"queue_cap":2,"rate":0.08,"warmup":-1,"measure":400,"seed":3}`,
		`{"scheme":"DR","pattern":"PAT280","radix":[2,2],"queue_cap":2,"rate":0.08,"warmup":-1,"measure":400,"seed":3}`,
	} {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/runs", strings.NewReader(body))
		req.Header.Set("X-Request-ID", []string{"req-first", "req-second"}[i])
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, %v", i, resp.StatusCode, err)
		}
		resp.Body.Close()
		views[v.ID] = v
	}
	for id := range views {
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			_, body := getJSON(t, srv.URL+"/v1/runs/"+id)
			var v JobView
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatal(err)
			}
			if v.Status == StatusDone {
				views[id] = v
				break
			}
			if v.Status == StatusFailed || time.Now().After(deadline) {
				t.Fatalf("job %s: %s", id, body)
			}
		}
	}
	if err := sched.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	type line struct {
		Job       *string          `json:"job"`
		Kind      string           `json:"kind"`
		Cycle     int64            `json:"cycle"`
		Status    Status           `json:"status"`
		RequestID string           `json:"request_id"`
		Spans     []telemetry.Span `json:"spans"`
	}
	events, records, lastCycle := map[string]int{}, map[string]int{}, map[string]int64{}
	for i, raw := range strings.Split(strings.TrimSpace(file.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i, err, raw)
		}
		if l.Job == nil {
			t.Fatalf("line %d names no job: %s", i, raw)
		}
		view, ok := views[*l.Job]
		if !ok {
			t.Fatalf("line %d names job %q, which is neither submission: %s", i, *l.Job, raw)
		}
		if l.Kind != "" { // a machine event
			if records[*l.Job] > 0 {
				t.Fatalf("line %d: machine event after job %s's record", i, *l.Job)
			}
			if events[*l.Job] == 0 && l.Kind != string(obs.KindMeta) {
				t.Fatalf("job %s's first event is %q, want meta", *l.Job, l.Kind)
			}
			if l.Cycle < lastCycle[*l.Job] {
				t.Fatalf("line %d: job %s goes back from cycle %d to %d", i, *l.Job, lastCycle[*l.Job], l.Cycle)
			}
			events[*l.Job], lastCycle[*l.Job] = events[*l.Job]+1, l.Cycle
			continue
		}
		records[*l.Job]++
		if l.Status != StatusDone || l.RequestID != view.RequestID || !reflect.DeepEqual(l.Spans, view.Spans) {
			t.Errorf("job record %s\ndisagrees with its view: request_id %q, spans %v", raw, view.RequestID, view.Spans)
		}
	}
	for id, v := range views {
		if events[id] < 100 || records[id] != 1 {
			t.Errorf("job %s: %d machine events and %d job records, want a simulation's worth and exactly 1", id, events[id], records[id])
		}
		if !strings.HasPrefix(v.RequestID, "req-") || len(v.Spans) == 0 {
			t.Errorf("job %s's view carries request ID %q and %d spans", id, v.RequestID, len(v.Spans))
		}
	}
}

// TestTraceRecordsCacheHitsAndFailures: a job that never reaches a worker (its
// result was cached) and one that fails still leave exactly one job record, and
// a nil writer records nothing without being asked twice.
func TestTraceRecordsCacheHitsAndFailures(t *testing.T) {
	var file bytes.Buffer
	tw := NewTraceWriter(&file)
	store, _ := NewStore(8, "")
	sched := NewScheduler(SchedConfig{Workers: 1, Store: store, Trace: tw,
		Exec: func(ctx context.Context, spec RunSpec, bus *obs.Bus) ([]byte, error) {
			if spec.Seed == 2 {
				panic("poisoned")
			}
			return []byte(`{}`), nil
		}})
	wait := func(id string) {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if v, _ := sched.Job(id); v.Status == StatusDone || v.Status == StatusFailed {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", id)
			}
		}
	}
	ok := tinySpec()
	first, err := sched.Submit(context.Background(), ok)
	if err != nil {
		t.Fatal(err)
	}
	wait(first.ID)
	hit, err := sched.Submit(context.Background(), ok) // answered from the cache in Submit
	if err != nil || !hit.Cached {
		t.Fatalf("resubmission: %+v, %v", hit, err)
	}
	bad := tinySpec()
	bad.Seed = 2
	failed, err := sched.Submit(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	wait(failed.ID)
	sched.Drain(context.Background())
	tw.Close()

	var got []jobRecord
	for _, raw := range strings.Split(strings.TrimSpace(file.String()), "\n") {
		var r jobRecord
		if err := json.Unmarshal([]byte(raw), &r); err != nil {
			t.Fatalf("%v: %s", err, raw)
		}
		r.Spans = nil
		got = append(got, r)
	}
	want := []jobRecord{
		{Job: first.ID, SpecHash: first.SpecHash, Status: StatusDone},
		{Job: hit.ID, SpecHash: first.SpecHash, Status: StatusDone, Cached: true},
		{Job: failed.ID, SpecHash: failed.SpecHash, Status: StatusFailed, Error: "simsvc: job panicked: poisoned"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("job records\n got %+v\nwant %+v", got, want)
	}
	(*TraceWriter)(nil).job(JobView{ID: "j-000001"})
}
