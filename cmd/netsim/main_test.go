package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseRadix(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"8x8", []int{8, 8}, true},
		{"4X4X4", []int{4, 4, 4}, true},
		{"16", []int{16}, true},
		{"8x", nil, false},
		{"8x1", []int{8, 1}, true}, // the range is Config.Validate's to refuse
		{"axb", nil, false},
		{"", nil, false},
	}
	for _, c := range cases {
		got, err := parseRadix(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseRadix(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseRadix(%q) = %v", c.in, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseRadix(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestMain lets a test run the test binary as netsim itself: with
// NETSIM_TEST_MAIN set it calls main on the given arguments and never returns
// to the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("NETSIM_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runNetsim re-executes the test binary as netsim and returns its combined
// output and exit status.
func runNetsim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NETSIM_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("netsim %v: %v", args, err)
	return "", 0
}

// TestTooManyVCsIsAFlagError: -vcs beyond the router's 64-VC limit used to die
// with a stack trace out of router.NewChannel; it must be an ordinary flag
// error: one netsim:-prefixed line naming the limit, exit status 1.
func TestTooManyVCsIsAFlagError(t *testing.T) {
	out, code := runNetsim(t, "-vcs", "65", "-radix", "4x4")
	if code != 1 || !strings.HasPrefix(out, "netsim: ") || !strings.Contains(out, "limit of 64") || strings.Count(out, "\n") != 1 {
		t.Fatalf("netsim -vcs 65: exit %d, printed %q, want exit 1 and one netsim: line naming the limit", code, out)
	}
}

// TestNaNRateIsAFlagError: flag.Float64 parses "NaN", and NaN is neither below
// 0 nor above 1, so it used to pass the range test, print rate=NaN, simulate
// nothing and exit 0. It must be an error like any other rate outside [0,1].
// (The service cannot be handed one: JSON has no NaN literal, so POST /v1/runs
// fails to decode the body.)
func TestNaNRateIsAFlagError(t *testing.T) {
	out, code := runNetsim(t, "-rate", "NaN", "-measure", "200", "-radix", "4x4")
	if code != 1 || !strings.HasPrefix(out, "netsim: ") || !strings.Contains(out, "Rate") || strings.Count(out, "\n") != 1 {
		t.Fatalf("netsim -rate NaN: exit %d, printed %q, want exit 1 and one netsim: line naming the field", code, out)
	}
}

// TestBadFlagsAreOneLineErrors: a flag value the configuration cannot take is
// refused by Config.Validate, the one admission check, and surfaces as exit
// status 1 with a single netsim:-prefixed line that names the field (as Config
// spells it) or, for flags that are not Config fields, the flag. Some used to
// run as something else (a negative -outstanding was unbounded); the rest were
// checked in main in a second copy of the rule.
func TestBadFlagsAreOneLineErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-rate", "1.5"}, "Rate"},
		{[]string{"-radix", "8x1"}, "Radix"},
		{[]string{"-radix", "1048576x1048576"}, "Radix"},
		{[]string{"-bristling", "0"}, "Bristling"},
		{[]string{"-warmup", "-1"}, "Warmup"},
		{[]string{"-measure", "0"}, "Measure"},
		{[]string{"-drain", "-1"}, "MaxDrain"},
		{[]string{"-cwg", "-5"}, "CWGInterval"},
		{[]string{"-outstanding", "-4"}, "MaxOutstanding"},
		{[]string{"-flitbuf", "2000000000"}, "FlitBuf"},
		{[]string{"-queue", "2000000000"}, "QueueCap"},
		{[]string{"-qmode", "heap"}, "queue mode"},
		{[]string{"-detector", "bogus"}, "Detector"},
		{[]string{"-detector", "cwg", "-cwg", "0"}, "CWGInterval"},
		{[]string{"-detector", "probe", "-scheme", "SA", "-pattern", "PAT100"}, "Detector"},
		{[]string{"-scheme", "DR", "-pattern", "PAT100"}, "DR is not valid"},
		{[]string{"-check-interval", "0"}, "-check-interval"},
		{[]string{"-metrics-window", "0"}, "-metrics-window"},
		{[]string{"-profile", "-profile-sample", "0"}, "-profile-sample"},
	} {
		out, code := runNetsim(t, c.args...)
		if code != 1 || !strings.HasPrefix(out, "netsim: ") || !strings.Contains(out, c.want) || strings.Count(out, "\n") != 1 {
			t.Errorf("netsim %v: exit %d, printed %q; want exit 1 and one netsim: line containing %q", c.args, code, out, c.want)
		}
	}
}

// TestReplay drives the text form outside go test's own decoding: a committed
// counterexample reproduces (exit 0), and a file whose configuration Validate
// refuses is one netsim: line and exit 1, not a panic (TokenRegenTimeout -1
// used to reach token.SetRegenTimeout's) or a silently different run.
func TestReplay(t *testing.T) {
	golden := "../../internal/mc/testdata/forge-pr.json"
	out, code := runNetsim(t, "-replay", golden)
	if code != 0 || !strings.Contains(out, "replay: reproduced") {
		t.Fatalf("netsim -replay %s: exit %d\n%s", golden, code, out)
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for field, edit := range map[string][2]string{
		"CWGInterval":       {`"cwg_interval": 8`, `"cwg_interval": -5`},
		"MaxOutstanding":    {`"max_outstanding": 1`, `"max_outstanding": -4`},
		"QueueMode":         {`"queue_mode": -1`, `"queue_mode": 7`},
		"RetryBackoff":      {`"retry_backoff": 16`, `"retry_backoff": -1`},
		"TokenRegenTimeout": {`"seed": 1`, `"seed": 1, "token_regen_timeout": -1`},
	} {
		bad := strings.Replace(string(data), edit[0], edit[1], 1)
		if bad == string(data) {
			t.Fatalf("%s: %q not in %s", field, edit[0], golden)
		}
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code := runNetsim(t, "-replay", path)
		if code != 1 || !strings.HasPrefix(out, "netsim: ") || !strings.Contains(out, field) || strings.Count(out, "\n") != 1 {
			t.Errorf("replay with bad %s: exit %d, printed %q; want exit 1 and one netsim: line naming the field", field, code, out)
		}
	}
}
