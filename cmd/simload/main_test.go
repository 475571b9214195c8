package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test run the test binary as simload itself: with
// SIMLOAD_TEST_MAIN set it calls main on the given arguments and never
// returns to the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("SIMLOAD_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSimload re-executes the test binary as simload and returns its combined
// output and exit status.
func runSimload(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SIMLOAD_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("simload %v: %v", args, err)
	return "", 0
}

// TestBadFlagsAreOneLineErrors: a load shape the generator cannot draw is
// refused before any request is sent, with exit status 1 and a single
// simload:-prefixed line naming the three bounds.
func TestBadFlagsAreOneLineErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-keys", "0"},
		{"-concurrency", "0"},
		{"-zipf-s", "1"},
	} {
		out, code := runSimload(t, args...)
		if code != 1 || out != "simload: need -keys >= 1, -concurrency >= 1, -zipf-s > 1\n" {
			t.Errorf("simload %v: exit %d, printed %q; want exit 1 and the one-line bounds", args, code, out)
		}
	}
}

// TestNoVersionFlag: simload is the one command without -version (README,
// "Every binary except simload takes -version"), so the flag package refuses
// it with its usage and exit status 2, before any request is sent.
func TestNoVersionFlag(t *testing.T) {
	out, code := runSimload(t, "-version")
	if code != 2 || !strings.HasPrefix(out, "flag provided but not defined: -version\n") {
		t.Fatalf("simload -version: exit %d, printed %q; want exit 2 and the flag package's refusal", code, out)
	}
}

// TestStallShowsInFlightAtClose: against a service that accepts connections
// and never answers, every request is still open when the window closes. None
// of them is a sample, so the report must count them and their age instead of
// reading as a short run with a clean error budget.
func TestStallShowsInFlightAtClose(t *testing.T) {
	stop := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stop:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(stop)

	cfg := config{target: srv.URL, duration: 300 * time.Millisecond, concurrency: 3,
		keys: 8, zipfS: 1.2, seed: 1, measure: 500}
	samples, open := run(cfg)
	rep := summarize(cfg, samples, open)
	if rep.Requests != 0 || rep.ErrorBudget.Total != 0 {
		t.Fatalf("requests %d, error budget %v: a request open at close is not a sample", rep.Requests, rep.ErrorBudget.Total)
	}
	if rep.InFlightAtClose != 3 || rep.OldestInFlightUS < 250_000 || rep.OldestInFlightUS > 5_000_000 {
		t.Fatalf("in flight at close %d, oldest %dus; want all 3 workers, about 300ms old",
			rep.InFlightAtClose, rep.OldestInFlightUS)
	}
}
