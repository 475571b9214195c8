package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/simsvc"
)

// waitBreaker polls /v1/cluster until backend i reports state want, and
// returns when it first did; it fails the test after within.
func waitBreaker(t *testing.T, coord *Coordinator, i int, want string, within time.Duration) time.Time {
	t.Helper()
	url := coord.backends[i].url
	deadline := time.Now().Add(within)
	for {
		_, body := doGet(t, coord, "/v1/cluster")
		var st ClusterStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("/v1/cluster: %v\n%s", err, body)
		}
		for _, b := range st.Backends {
			if b.URL == url && b.Breaker == want {
				return time.Now()
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend %d not %q within %v: %s", i, want, within, body)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHungBackendIsRoutedAround is the partitioned-shard and slow-loris case:
// one backend accepts connections but its handlers, probes included, block
// until the test releases them. The ring must mark it down within one probe
// interval plus one probe timeout, keep completing submissions for keys of
// every owner, answer a poll for a job the hung backend accepted without
// waiting out the client timeout, and mark it up within one probe interval of
// its release.
func TestHungBackendIsRoutedAround(t *testing.T) {
	const (
		probeInterval = 50 * time.Millisecond
		probeTimeout  = 250 * time.Millisecond
		clientTimeout = 5 * time.Second
		// slack covers scheduling and one probe round trip.
		slack = 150 * time.Millisecond
	)
	coord, backends := testCluster(t, 3, 0, func(c *Config) {
		c.ProbeInterval, c.ProbeTimeout = probeInterval, probeTimeout
		c.Client = &http.Client{Timeout: clientTimeout}
	})
	const hung = 0

	// Two seeds per owner: the first of the hung backend's is accepted
	// before it hangs, the rest are submitted during the hang.
	byOwner := make([][]uint64, len(backends))
	for seed, full := uint64(1), 0; full < len(backends); seed++ {
		o := coord.Ring().Owner(specHash(t, seed))
		if len(byOwner[o]) < 2 {
			if byOwner[o] = append(byOwner[o], seed); len(byOwner[o]) == 2 {
				full++
			}
		}
	}
	submit := func(seed uint64) string {
		t.Helper()
		resp, body := doPost(t, coord, "/v1/runs", specJSON(seed), nil)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d %s", seed, resp.StatusCode, body)
		}
		var v simsvc.JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v.ID
	}
	accepted := submit(byOwner[hung][0])
	coord.mu.Lock()
	onHung := coord.jobs[accepted].backendIdx == hung
	coord.mu.Unlock()
	if !onHung {
		t.Fatalf("job %s was not placed on its owner, backend %d", accepted, hung)
	}

	gate := make(chan struct{})
	release := func() {
		if backends[hung].hang.CompareAndSwap(&gate, nil) {
			close(gate)
		}
	}
	t.Cleanup(release) // before the server closes: it waits for its handlers
	backends[hung].hang.Store(&gate)
	hungAt := time.Now()

	if d := waitBreaker(t, coord, hung, "open", time.Second).Sub(hungAt); d > probeInterval+probeTimeout+slack {
		t.Errorf("hung backend marked down after %v, want within %v + %v", d, probeInterval+probeTimeout, slack)
	}

	start := time.Now()
	resp, body := doGet(t, coord, "/v1/runs/"+accepted)
	if d := time.Since(start); resp.StatusCode != http.StatusOK || d > time.Second {
		t.Fatalf("poll of a job on the hung backend: %d after %v (client timeout %v): %s", resp.StatusCode, d, clientTimeout, body)
	}
	pollDone(t, coord, accepted, 3*time.Second)

	for _, seeds := range byOwner {
		for _, seed := range seeds[1:] {
			pollDone(t, coord, submit(seed), 3*time.Second)
		}
	}

	release()
	releasedAt := time.Now()
	if d := waitBreaker(t, coord, hung, "closed", time.Second).Sub(releasedAt); d > probeInterval+slack {
		t.Errorf("released backend marked up after %v, want within %v + %v", d, probeInterval, slack)
	}
}

// TestInFlightLegEndsWhenBreakerOpens: a backend that hangs while a
// submission is in flight to it does not hold the submission for the client
// timeout. When the probes open its breaker, the leg is cancelled like a
// transport error and the next replica answers, within one probe interval plus
// one probe timeout of the submission. With hedging on, the leg's failure
// fires the hedge at once instead of at the hedge delay.
func TestInFlightLegEndsWhenBreakerOpens(t *testing.T) {
	const (
		probeInterval = 50 * time.Millisecond
		probeTimeout  = 250 * time.Millisecond
		slack         = 200 * time.Millisecond
	)
	for _, hedge := range []bool{false, true} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) {
			coord, backends := testCluster(t, 3, 0, func(c *Config) {
				c.ProbeInterval, c.ProbeTimeout = probeInterval, probeTimeout
				c.Client = &http.Client{Timeout: 10 * time.Second}
				c.DisableHedge = !hedge
				c.HedgeMin, c.HedgeMax = 5*time.Second, 5*time.Second
			})
			seed := uint64(1)
			for coord.Ring().Owner(specHash(t, seed)) != 0 {
				seed++
			}
			gate := make(chan struct{})
			t.Cleanup(func() { close(gate) }) // before the server closes: it waits for its handlers
			backends[0].hang.Store(&gate)

			start := time.Now()
			resp, body := doPost(t, coord, "/v1/runs", specJSON(seed), nil)
			if d := time.Since(start); d > probeInterval+probeTimeout+slack {
				t.Errorf("submission answered after %v, want within %v + %v", d, probeInterval+probeTimeout, slack)
			}
			var v simsvc.JobView
			if err := json.Unmarshal(body, &v); err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d %s", resp.StatusCode, body)
			}
			coord.mu.Lock()
			on := coord.jobs[v.ID].backendIdx
			coord.mu.Unlock()
			if on == 0 {
				t.Errorf("job %s placed on the hung backend", v.ID)
			}
		})
	}
}
