package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the test binary as simserve itself: with
// SIMSERVE_TEST_MAIN set it calls main on the given arguments and never
// returns to the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("SIMSERVE_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSimserve re-executes the test binary as simserve and returns its
// combined output and exit status.
func runSimserve(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SIMSERVE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("simserve %v: %v", args, err)
	return "", 0
}

// TestBadFlagsAreOneLineErrors: a setting the server cannot start with is
// refused before anything listens, with exit status 1 and a single
// simserve:-prefixed line saying what is wrong with it.
func TestBadFlagsAreOneLineErrors(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "0"}, "-workers must be at least 1, got 0"},
		{[]string{"-queue", "0"}, "-queue must be at least 1, got 0"},
		{[]string{"-peers", "http://a,,http://b"}, `-peers: empty entry in URL list "http://a,,http://b"`},
		{[]string{"-cache-dir", filepath.Join(file, "cache")}, "not a directory"},
		{[]string{"-trace", filepath.Join(dir, "missing", "trace.jsonl")}, "no such file or directory"},
	} {
		out, code := runSimserve(t, c.args...)
		if code != 1 || !strings.HasPrefix(out, "simserve: ") || !strings.Contains(out, c.want) || strings.Count(out, "\n") != 1 {
			t.Errorf("simserve %v: exit %d, printed %q; want exit 1 and one simserve: line containing %q", c.args, code, out, c.want)
		}
	}
}

// TestVersion: -version prints the build's version line and exits 0 without
// starting the server.
func TestVersion(t *testing.T) {
	out, code := runSimserve(t, "-version")
	if code != 0 || !strings.HasPrefix(out, "simserve ") || strings.Count(out, "\n") != 1 {
		t.Fatalf("simserve -version: exit %d, printed %q; want exit 0 and one version line", code, out)
	}
}
