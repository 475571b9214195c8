package repro

import (
	"os"
	"regexp"
	"testing"
)

// docPath matches the four kinds of repository path the documents name:
// a binary, a script, an internal package and a committed benchmark artifact.
var docPath = regexp.MustCompile(`\b(cmd/\w+|scripts/\w+\.sh|internal/\w+|BENCH_PR\d+\.json)`)

// TestDocsNameExistingPaths keeps the documents that say how to build, run
// and measure this repository pointing at things that exist: a deleted tool
// must take its recipes with it. CHANGES.md and ROADMAP.md are history and
// exempt. Mutation check: the path of one deleted binary left in README.md
// fails it.
func TestDocsNameExistingPaths(t *testing.T) {
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md",
		".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
	} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[string]bool{}
		for _, p := range docPath.FindAllString(string(text), -1) {
			if _, err := os.Stat(p); err != nil && !missing[p] {
				missing[p] = true
				t.Errorf("%s names %s, which is not in the tree", doc, p)
			}
		}
	}
}
