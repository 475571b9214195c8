package main

import (
	"bytes"
	"errors"
	"flag"
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
		{[]string{"-detector", "cwg"}, "Detector"}, // the scan is the oracle, not a trigger
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

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's output")

// TestOutputGolden pins, byte for byte, everything netsim writes for one small
// deadlocking run per recovery path — PR closes its episodes by rescue, DR by
// deflection, AB by nack — on a scarce 2x2 torus: standard output with the
// episode and digest lines, the JSONL trace, the Chrome trace, the sampler CSV
// and the episode JSONL. The machine-event schema, the order events reach a
// sink in, the CSV columns and the wait-chain records are what tools downstream
// of a run parse; a change to how components reach the bus or how watchers
// hang off it must leave every file here alone.
func TestOutputGolden(t *testing.T) {
	for _, c := range []struct {
		scheme, pattern, vcs, resolution string
	}{
		{"PR", "PAT271", "2", "rescue"},
		{"DR", "PAT280", "4", "deflection"},
		{"AB", "PAT280", "4", "nack"},
	} {
		t.Run(c.scheme, func(t *testing.T) {
			dir := t.TempDir()
			at := func(name string) string { return filepath.Join(dir, name) }
			run := []string{"-scheme", c.scheme, "-pattern", c.pattern, "-vcs", c.vcs,
				"-radix", "2x2", "-queue", "2", "-rate", "0.08", "-seed", "3",
				"-warmup", "0", "-measure", "400", "-drain", "300", "-cwg", "50"}
			stdout, code := runNetsim(t, append(run, "-digest", "-episodes",
				"-trace", at("trace.jsonl"), "-metrics-csv", at("metrics.csv"),
				"-metrics-window", "50", "-episodes-json", at("episodes.jsonl"))...)
			if code != 0 && code != 2 {
				t.Fatalf("exit %d\n%s", code, stdout)
			}
			if _, code := runNetsim(t, append(run, "-episodes",
				"-trace", at("trace.chrome.json"), "-trace-format", "chrome")...); code != 0 && code != 2 {
				t.Fatalf("chrome run: exit %d", code)
			}
			if err := os.WriteFile(at("stdout.txt"), []byte(stdout), 0o644); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "golden", strings.ToLower(c.scheme))
			if *update {
				if err := os.MkdirAll(golden, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range []string{"stdout.txt", "trace.jsonl", "trace.chrome.json", "metrics.csv", "episodes.jsonl"} {
				got, err := os.ReadFile(at(name))
				if err != nil {
					t.Fatal(err)
				}
				if *update {
					if err := os.WriteFile(filepath.Join(golden, name), got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(filepath.Join(golden, name))
				if err != nil {
					t.Fatalf("%v (run with -update to generate)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s moved (%d bytes, want %d); first difference at byte %d",
						name, len(got), len(want), firstDiff(got, want))
				}
			}
			// The pin is only worth having if the run deadlocks and recovers the
			// way its scheme implies.
			eps, _ := os.ReadFile(filepath.Join(golden, "episodes.jsonl"))
			if !bytes.Contains(eps, []byte(`"resolution":"`+c.resolution+`"`)) {
				t.Errorf("no episode closed by %s in the pinned run", c.resolution)
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
