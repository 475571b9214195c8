// Command simload drives a simserve or simring endpoint with synthetic
// load and reports what the service actually delivered: per-second
// throughput, submit-latency percentiles, and an error-budget breakdown.
//
// Two load models:
//
//   - closed loop (default): -concurrency workers each submit, optionally
//     poll to completion (-wait), then immediately submit again — the
//     classic "N outstanding requests" model whose offered load adapts to
//     service speed
//   - open loop (-rate > 0): arrivals fire at a fixed rate regardless of
//     completions, the model that exposes queue collapse under overload
//
// Specs are drawn Zipfian over -keys distinct seeds (s = -zipf-s), so a
// hot head of repeated specs exercises the content-addressed cache while
// the tail keeps generating real simulations — the mix a result-caching
// service actually sees.
//
// A request still unanswered when the load window closes is not a sample:
// it has no latency yet. The report counts those requests instead, with the
// oldest one's age, so a service that stopped answering mid-run shows as a
// stall rather than as a short run with a clean error budget.
//
// Usage:
//
//	simload -target http://127.0.0.1:9000 -duration 30s -concurrency 8
//	simload -target http://127.0.0.1:9000 -rate 50 -duration 30s -json out.json
//
// The -json report is the benchmarking interchange format used by
// BENCH_PR10.json.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

type config struct {
	target      string
	duration    time.Duration
	concurrency int
	rate        float64
	keys        int
	zipfS       float64
	wait        bool
	seed        int64
	measure     int64
	jsonPath    string
}

// sample is one completed request's accounting record.
type sample struct {
	sec    int   // second-since-start bucket
	us     int64 // submit (or end-to-end with -wait) latency
	status int   // final HTTP status; 0 = transport error
	cached bool
}

// report is the machine-readable summary (-json); BENCH_PR10.json embeds
// one of these per scenario.
type report struct {
	Target      string  `json:"target"`
	Model       string  `json:"model"` // "closed" or "open"
	Concurrency int     `json:"concurrency,omitempty"`
	RatePerSec  float64 `json:"rate_per_sec,omitempty"`
	DurationSec float64 `json:"duration_sec"`
	Keys        int     `json:"keys"`
	ZipfS       float64 `json:"zipf_s"`
	Wait        bool    `json:"wait"`

	Requests   int64   `json:"requests"`
	Throughput float64 `json:"throughput_rps"`
	CacheHits  int64   `json:"cache_hits"`

	LatencyUS struct {
		P50 int64 `json:"p50"`
		P95 int64 `json:"p95"`
		P99 int64 `json:"p99"`
		Max int64 `json:"max"`
	} `json:"latency_us"`

	// ErrorBudget is the fraction of requests that did not succeed; the
	// breakdown separates deliberate backpressure from real failures.
	ErrorBudget struct {
		Total        float64 `json:"total"`
		Backpressure int64   `json:"backpressure_429_503"`
		Failures     int64   `json:"failures"`
		Transport    int64   `json:"transport_errors"`
	} `json:"error_budget"`

	// InFlightAtClose counts the requests still unanswered when the load
	// window closed, and OldestInFlightUS is the age of the oldest of them
	// then (0 when there were none). They are not in Requests, except that
	// with -wait an accepted job still being polled at close counts as a
	// success.
	InFlightAtClose  int64 `json:"in_flight_at_close"`
	OldestInFlightUS int64 `json:"oldest_in_flight_us"`

	PerSecond []secondStat `json:"per_second"`
}

type secondStat struct {
	Second   int   `json:"s"`
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	P50US    int64 `json:"p50_us"`
	P99US    int64 `json:"p99_us"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.target, "target", "http://127.0.0.1:8080", "simserve or simring base URL")
	flag.DurationVar(&cfg.duration, "duration", 15*time.Second, "load duration")
	flag.IntVar(&cfg.concurrency, "concurrency", 4, "closed-loop worker count")
	flag.Float64Var(&cfg.rate, "rate", 0, "open-loop arrivals per second (0 = closed loop)")
	flag.IntVar(&cfg.keys, "keys", 64, "distinct spec seeds drawn Zipfian")
	flag.Float64Var(&cfg.zipfS, "zipf-s", 1.1, "Zipf skew (>1; larger = hotter head)")
	flag.BoolVar(&cfg.wait, "wait", false, "poll each accepted job to completion (end-to-end latency)")
	flag.Int64Var(&cfg.seed, "seed", 1, "load-generator RNG seed")
	flag.Int64Var(&cfg.measure, "measure", 500, "measurement cycles per submitted spec (job cost knob)")
	flag.StringVar(&cfg.jsonPath, "json", "", "write the JSON report here ('-' = stdout)")
	flag.Parse()
	if cfg.keys < 1 || cfg.concurrency < 1 || cfg.zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "simload: need -keys >= 1, -concurrency >= 1, -zipf-s > 1")
		os.Exit(1)
	}

	samples, open := run(cfg)
	rep := summarize(cfg, samples, open)
	printHuman(rep)
	if cfg.jsonPath != "" {
		out, _ := json.MarshalIndent(rep, "", "  ")
		out = append(out, '\n')
		if cfg.jsonPath == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(cfg.jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "simload:", err)
			os.Exit(1)
		}
	}
	if rep.ErrorBudget.Transport > 0 || rep.ErrorBudget.Failures > 0 {
		os.Exit(2) // backpressure is service behavior; failures are not
	}
}

// run drives the load for cfg.duration and returns the completed requests'
// samples plus the ages of the requests in flight when it closed.
func run(cfg config) ([]sample, []time.Duration) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()

	// Requests are registered in flight under mu, and the window closes
	// under it too: first the in-flight set is copied, then ctx is
	// cancelled, so no request can finish or start between the two.
	var mu sync.Mutex
	var samples []sample
	var closed bool
	var open []time.Duration
	flying := map[int64]time.Time{}
	var nextReq int64
	closer := time.AfterFunc(cfg.duration, func() {
		mu.Lock()
		defer mu.Unlock()
		closed = true
		now := time.Now()
		for _, t0 := range flying {
			open = append(open, now.Sub(t0))
		}
		cancel()
	})
	defer closer.Stop()

	shoot := func(zipf *rand.Zipf) {
		seed := zipf.Uint64() + 1 // seed 0 means "default" in the spec
		t0 := time.Now()
		mu.Lock()
		if closed {
			mu.Unlock()
			return
		}
		nextReq++
		req := nextReq
		flying[req] = t0
		mu.Unlock()
		status, cached := submitOne(ctx, client, cfg, seed)
		mu.Lock()
		defer mu.Unlock()
		delete(flying, req)
		if status == 0 && ctx.Err() != nil {
			// The load window closed while this request was in flight; it is
			// counted in open, not as a failure.
			return
		}
		samples = append(samples, sample{
			sec:    int(t0.Sub(start) / time.Second),
			us:     time.Since(t0).Microseconds(),
			status: status,
			cached: cached,
		})
	}

	var wg sync.WaitGroup
	if cfg.rate > 0 {
		// Open loop: fixed arrival schedule; each arrival gets its own
		// goroutine so a slow service cannot slow the arrival process —
		// that decoupling is the whole point of the model.
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / cfg.rate)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			var seq int64
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				seq++
				wg.Add(1)
				// Each arrival draws from its own RNG stream so the Zipf
				// draw order stays deterministic even as goroutines race.
				arng := rand.New(rand.NewSource(cfg.seed + seq))
				azipf := rand.NewZipf(arng, cfg.zipfS, 1, uint64(cfg.keys-1))
				go func() {
					defer wg.Done()
					shoot(azipf)
				}()
			}
		}()
	} else {
		for w := 0; w < cfg.concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
				zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.keys-1))
				for ctx.Err() == nil {
					shoot(zipf)
				}
			}(w)
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return samples, open
}

// submitOne posts one spec and (with -wait) polls it to completion.
// Returns the final status and whether the service answered from cache.
func submitOne(ctx context.Context, client *http.Client, cfg config, seed uint64) (int, bool) {
	body := fmt.Sprintf(
		`{"scheme":"PR","pattern":"PAT271","radix":[2,2],"rate":0.02,"warmup":-1,"measure":%d,"seed":%d}`,
		cfg.measure, seed)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		cfg.target+"/v1/runs", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, false
	}
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	var v struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
	}
	json.Unmarshal(respBody, &v)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, false
	}
	if !cfg.wait || v.Status == "done" {
		return resp.StatusCode, v.Cached
	}
	for {
		select {
		case <-ctx.Done():
			// The run window closed while polling; the submit itself
			// succeeded, so report that rather than a phantom error.
			return resp.StatusCode, v.Cached
		case <-time.After(20 * time.Millisecond):
		}
		// Poll outside the load window's ctx so an accepted job is always
		// followed to its end.
		pr, err := http.NewRequest(http.MethodGet, cfg.target+"/v1/runs/"+v.ID, nil)
		if err != nil {
			return 0, false
		}
		presp, err := client.Do(pr)
		if err != nil {
			return 0, false
		}
		pbody, _ := io.ReadAll(io.LimitReader(presp.Body, 1<<20))
		presp.Body.Close()
		var pv struct {
			Status string `json:"status"`
			Cached bool   `json:"cached"`
		}
		json.Unmarshal(pbody, &pv)
		switch pv.Status {
		case "done":
			return http.StatusOK, pv.Cached
		case "failed":
			return http.StatusInternalServerError, false
		}
	}
}

// summarize reduces the samples, and the ages of the requests open when the
// window closed, to the report.
func summarize(cfg config, samples []sample, open []time.Duration) report {
	rep := report{
		Target:      cfg.target,
		Model:       "closed",
		Concurrency: cfg.concurrency,
		DurationSec: cfg.duration.Seconds(),
		Keys:        cfg.keys,
		ZipfS:       cfg.zipfS,
		Wait:        cfg.wait,
	}
	if cfg.rate > 0 {
		rep.Model, rep.RatePerSec, rep.Concurrency = "open", cfg.rate, 0
	}

	var overall stats.LatencyHist
	perSec := map[int]*struct {
		hist   stats.LatencyHist
		n, err int64
	}{}
	for _, s := range samples {
		rep.Requests++
		ps := perSec[s.sec]
		if ps == nil {
			ps = &struct {
				hist   stats.LatencyHist
				n, err int64
			}{}
			perSec[s.sec] = ps
		}
		ps.n++
		switch {
		case s.status == http.StatusOK || s.status == http.StatusAccepted:
			overall.Add(s.us)
			ps.hist.Add(s.us)
			if s.cached {
				rep.CacheHits++
			}
		case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
			rep.ErrorBudget.Backpressure++
			ps.err++
		case s.status == 0:
			rep.ErrorBudget.Transport++
			ps.err++
		default:
			rep.ErrorBudget.Failures++
			ps.err++
		}
	}
	if rep.Requests > 0 {
		bad := rep.ErrorBudget.Backpressure + rep.ErrorBudget.Failures + rep.ErrorBudget.Transport
		rep.ErrorBudget.Total = float64(bad) / float64(rep.Requests)
	}
	if cfg.duration > 0 {
		rep.Throughput = float64(overall.Count()) / cfg.duration.Seconds()
	}
	rep.LatencyUS.P50 = overall.P50()
	rep.LatencyUS.P95 = overall.P95()
	rep.LatencyUS.P99 = overall.P99()
	rep.LatencyUS.Max = overall.Max()
	rep.InFlightAtClose = int64(len(open))
	for _, age := range open {
		rep.OldestInFlightUS = max(rep.OldestInFlightUS, age.Microseconds())
	}

	secs := make([]int, 0, len(perSec))
	for s := range perSec {
		secs = append(secs, s)
	}
	sort.Ints(secs)
	for _, s := range secs {
		ps := perSec[s]
		rep.PerSecond = append(rep.PerSecond, secondStat{
			Second: s, Requests: ps.n, Errors: ps.err,
			P50US: ps.hist.P50(), P99US: ps.hist.P99(),
		})
	}
	return rep
}

func printHuman(r report) {
	fmt.Printf("simload: %s %s", r.Model, r.Target)
	if r.Model == "closed" {
		fmt.Printf(" (concurrency %d)", r.Concurrency)
	} else {
		fmt.Printf(" (rate %.1f/s)", r.RatePerSec)
	}
	fmt.Printf(", %d keys zipf(s=%.2f), wait=%v\n", r.Keys, r.ZipfS, r.Wait)
	fmt.Printf("  %d requests in %.0fs -> %.1f ok/s, %d cache hits\n",
		r.Requests, r.DurationSec, r.Throughput, r.CacheHits)
	fmt.Printf("  latency us: p50=%d p95=%d p99=%d max=%d\n",
		r.LatencyUS.P50, r.LatencyUS.P95, r.LatencyUS.P99, r.LatencyUS.Max)
	fmt.Printf("  error budget: %.2f%% (backpressure %d, failures %d, transport %d)\n",
		100*r.ErrorBudget.Total, r.ErrorBudget.Backpressure,
		r.ErrorBudget.Failures, r.ErrorBudget.Transport)
	fmt.Printf("  in flight at close: %d (oldest %dus)\n", r.InFlightAtClose, r.OldestInFlightUS)
	for _, s := range r.PerSecond {
		fmt.Printf("  t=%2ds  %4d req  %3d err  p50=%7dus  p99=%7dus\n",
			s.Second, s.Requests, s.Errors, s.P50US, s.P99US)
	}
}
