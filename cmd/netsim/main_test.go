package main

import (
	"errors"
	"os"
	"os/exec"
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
		{"8x1", nil, false},
		{"0x8", nil, false},
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

// TestTooManyVCsIsAFlagError: -vcs beyond the router's 64-VC limit used to die
// with a stack trace out of router.NewChannel; it must be an ordinary flag
// error: one netsim:-prefixed line naming the limit, exit status 1.
func TestTooManyVCsIsAFlagError(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-vcs", "65", "-radix", "4x4")
	cmd.Env = append(os.Environ(), "NETSIM_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("netsim -vcs 65: %v, want exit status 1\n%s", err, out)
	}
	if s := string(out); !strings.HasPrefix(s, "netsim: ") || !strings.Contains(s, "limit of 64") || strings.Count(s, "\n") != 1 {
		t.Fatalf("netsim -vcs 65 printed %q, want one netsim: line naming the limit", s)
	}
}

// TestNaNRateIsAFlagError: flag.Float64 parses "NaN", and NaN is neither below
// 0 nor above 1, so it used to pass the range test, print rate=NaN, simulate
// nothing and exit 0. It must be a flag error like any other rate outside
// [0,1]. (The service cannot be handed one: JSON has no NaN literal, so
// POST /v1/runs fails to decode the body.)
func TestNaNRateIsAFlagError(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-rate", "NaN", "-measure", "200", "-radix", "4x4")
	cmd.Env = append(os.Environ(), "NETSIM_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("netsim -rate NaN: %v, want exit status 1\n%s", err, out)
	}
	if s := string(out); !strings.HasPrefix(s, "netsim: ") || !strings.Contains(s, "-rate") || strings.Count(s, "\n") != 1 {
		t.Fatalf("netsim -rate NaN printed %q, want one netsim: line naming the flag", s)
	}
}
