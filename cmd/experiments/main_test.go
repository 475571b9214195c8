package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestMain lets a test run the test binary as experiments itself: with
// EXPERIMENTS_TEST_MAIN set it calls main on the given arguments and never
// returns to the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runExperiments re-executes the test binary as experiments and returns its
// combined output and exit status.
func runExperiments(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("experiments %v: %v", args, err)
	return "", 0
}

func TestTable1Smoke(t *testing.T) {
	out, code := runExperiments(t, "-scale", "smoke", "-j", "1", "table1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "\nWater ") || !strings.Contains(out, "[table1 done in ") {
		t.Errorf("no Water row or no completion line:\n%s", out)
	}
}

// TestUnknownExperiment: an unknown name is a usage error, found before any
// experiment runs, and the usage lists every experiment of the table.
func TestUnknownExperiment(t *testing.T) {
	out, code := runExperiments(t, "-scale", "smoke", "table1", "fig7")
	if code != 2 {
		t.Fatalf("exit %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, `unknown experiment "fig7"`) || strings.Contains(out, "=== Table 1") {
		t.Errorf("want the unknown name reported before anything runs:\n%s", out)
	}
	for _, e := range experiments.All {
		if !strings.Contains(out, "\n  "+e.Name+" ") {
			t.Errorf("usage does not list %s:\n%s", e.Name, out)
		}
	}
}

func TestUnknownScale(t *testing.T) {
	out, code := runExperiments(t, "-scale", "huge", "table1")
	if code != 1 || !strings.Contains(out, `unknown scale "huge"`) {
		t.Fatalf("exit %d, want 1 naming the scale:\n%s", code, out)
	}
}

// TestEveryExperimentDocumented holds README's experiment table and the
// usage text to the experiment table: an entry missing from either fails.
func TestEveryExperimentDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	usage, _ := runExperiments(t)
	for _, e := range experiments.All {
		if !strings.Contains(string(readme), "\n| `"+e.Name+"`") {
			t.Errorf("README's experiment table has no %s row", e.Name)
		}
		if !strings.Contains(usage, "\n  "+e.Name+" ") {
			t.Errorf("usage text does not list %s", e.Name)
		}
	}
}
