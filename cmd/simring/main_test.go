package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the test binary as simring itself: with
// SIMRING_TEST_MAIN set it calls main on the given arguments and never
// returns to the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("SIMRING_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSimring re-executes the test binary as simring and returns its combined
// output and exit status.
func runSimring(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SIMRING_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("simring %v: %v", args, err)
	return "", 0
}

// TestBadBackendsAreOneLineErrors: a backend list the coordinator cannot
// serve from is refused before anything listens, with exit status 1 and a
// single simring:-prefixed line saying what is wrong with it.
func TestBadBackendsAreOneLineErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "simring: -backends is required "},
		{[]string{"-backends", "http://a,,http://b"}, `empty entry in URL list "http://a,,http://b"`},
		{[]string{"-backends", "http://a,http://a/"}, "cluster: duplicate backend"},
	} {
		out, code := runSimring(t, c.args...)
		if code != 1 || !strings.HasPrefix(out, "simring: ") || !strings.Contains(out, c.want) || strings.Count(out, "\n") != 1 {
			t.Errorf("simring %v: exit %d, printed %q; want exit 1 and one simring: line containing %q", c.args, code, out, c.want)
		}
	}
}

// TestVersion: -version prints the build's version line and exits 0 without
// asking for backends.
func TestVersion(t *testing.T) {
	out, code := runSimring(t, "-version")
	if code != 0 || !strings.HasPrefix(out, "simring ") || strings.Count(out, "\n") != 1 {
		t.Fatalf("simring -version: exit %d, printed %q; want exit 0 and one version line", code, out)
	}
}
