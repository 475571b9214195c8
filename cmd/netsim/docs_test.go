package main

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/simsvc"
)

// observerFlags are the netsim flags that are not RunSpec keys: each watches,
// reports or replays a run and changes nothing in it.
var observerFlags = map[string]bool{
	"trace": true, "trace-format": true, "metrics-csv": true, "metrics-window": true,
	"episodes": true, "episodes-json": true, "digest": true,
	"profile": true, "profile-json": true, "profile-sample": true,
	"replay": true, "version": true,
}

// netsimCommand finds a netsim command in a document. In inline code it runs
// to the closing backtick; elsewhere to the end of the line, on across a
// trailing backslash, and up to a pipe, separator, comment or redirection.
var netsimCommand = regexp.MustCompile("`(?:go run \\./cmd/netsim|/tmp/netsim|netsim)( +-[^`]*)`|" +
	"(?:go run \\./cmd/netsim|/tmp/netsim|(?:^|[\\s(])netsim)( +-(?:\\\\\n|[^\n`|;&#>])*)")

// commandFlag finds the flags a command names.
var commandFlag = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)

// TestFlagsAndDocs: netsim's run flags are the RunSpec keys — every key is a
// flag, and every flag that is not an observer flag is a key — and every flag
// a netsim command spells in the documentation and CI is one netsim defines.
// Mutation check: putting -drain back in one README command fails it.
func TestFlagsAndDocs(t *testing.T) {
	keys := map[string]bool{}
	rt := reflect.TypeOf(simsvc.RunSpec{})
	for i := 0; i < rt.NumField(); i++ {
		key, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		keys[key] = true
		if flag.Lookup(key) == nil {
			t.Errorf("RunSpec key %q is not a netsim flag", key)
		}
	}
	flags := map[string]bool{"h": true, "help": true} // the flag package's own
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") || f.Name == "update" {
			return // the test binary's
		}
		flags[f.Name] = true
		if !keys[f.Name] && !observerFlags[f.Name] {
			t.Errorf("-%s is neither a RunSpec key nor an observer flag", f.Name)
		}
	})

	commands := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range netsimCommand.FindAllStringSubmatch(string(text), -1) {
			commands++
			for _, f := range commandFlag.FindAllStringSubmatch(cmd[1]+cmd[2], -1) {
				if !flags[f[1]] {
					t.Errorf("%s: netsim has no flag -%s:%s%s", doc, f[1], cmd[1], cmd[2])
				}
			}
		}
	}
	if commands < 40 {
		t.Errorf("found %d netsim commands in the documents; the pattern no longer finds them", commands)
	}
	t.Logf("%d netsim commands", commands)
}
