package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the test binary as modelcheck itself: with
// MODELCHECK_TEST_MAIN set it calls main on the given arguments and never
// returns to the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("MODELCHECK_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func modelcheck(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MODELCHECK_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestGridlockChecksTheRecoverySchemes: the README's `modelcheck -workload
// gridlock` used to exit 1 on strict avoidance's validity envelope (-scheme
// all starts with SA, and the gridlock configuration has 4 VCs over 3 message
// types) before exploring anything. It must say why SA is skipped, exhaust DR
// and PR — the space where recovery is load-bearing — and exit 0.
func TestGridlockChecksTheRecoverySchemes(t *testing.T) {
	out, err := modelcheck("-workload", "gridlock")
	if err != nil {
		t.Fatalf("modelcheck -workload gridlock: %v\n%s", err, out)
	}
	for _, want := range []string{
		"SA: skipped: ",
		"DR PAT280/gridlock: exhausted: 5 states, 960 transitions, 16 accepting paths, 28 detections, depth 2",
		"PR PAT280/gridlock: exhausted: 5 states, 1000 transitions, 16 accepting paths, 24 detections, depth 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestGridlockSAAskedForIsAnError: asked for by name, SA on the gridlock space
// is still the scheme's own error and exit status 1, not a silent skip.
func TestGridlockSAAskedForIsAnError(t *testing.T) {
	out, err := modelcheck("-workload", "gridlock", "-scheme", "SA")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("modelcheck -workload gridlock -scheme SA: %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(out, "modelcheck: schemes: SA needs >= 2 VCs per message type") {
		t.Fatalf("output lacks the scheme's error:\n%s", out)
	}
}
