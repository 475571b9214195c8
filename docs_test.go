package repro

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/simsvc"
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

// TestNoTrackedBinaries: PR 22 committed an 11 MB `go build ./cmd/simserve`
// output at the root. No tracked file may start with the ELF magic. Skipped
// outside a git checkout (an exported tree has no index to ask).
func TestNoTrackedBinaries(t *testing.T) {
	os.Stat(".git/index") // so that `git add` invalidates a cached pass of this test
	out, err := exec.Command("git", "ls-files", "-z").Output()
	if err != nil {
		t.Skipf("not a git checkout: %v", err)
	}
	for _, name := range strings.Split(strings.TrimRight(string(out), "\x00"), "\x00") {
		f, err := os.Open(name)
		if err != nil {
			continue // tracked, deleted in the working tree
		}
		magic := make([]byte, 4)
		_, err = io.ReadFull(f, magic)
		f.Close()
		if err == nil && string(magic) == "\x7fELF" {
			t.Errorf("%s is a tracked ELF binary: git rm it, and see the build outputs .gitignore lists", name)
		}
	}
}

// servers builds the two things that export metrics — a simserve handler and a
// simring coordinator whose one backend refuses connections — with logging off.
// The stub executor makes a submission cost a hash and a map insert.
func servers(t *testing.T) (*simsvc.Server, *cluster.Coordinator) {
	t.Helper()
	quiet := log.New(io.Discard, "", 0)
	store, err := simsvc.NewStore(64, "")
	if err != nil {
		t.Fatal(err)
	}
	sched := simsvc.NewScheduler(simsvc.SchedConfig{Store: store,
		Exec: func(context.Context, simsvc.RunSpec, *obs.Bus) ([]byte, error) { return []byte(`{}`), nil }})
	srv := simsvc.NewServer(sched)
	srv.SetLogger(quiet)
	coord, err := cluster.New(cluster.Config{Backends: []string{"http://127.0.0.1:1"},
		Logger: quiet, MaxPasses: 1, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sched.Drain(context.Background())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		coord.Drain(ctx) // abandons what the dead backend can never take
		cancel()
	})
	return srv, coord
}

func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// family is what a scrape shows of one metric family.
type family struct {
	typ    string
	labels string // sorted label names of its series, comma-separated; "—" for none
}

var (
	typeLine   = regexp.MustCompile(`(?m)^# TYPE (\w+) (\w+)$`)
	seriesLine = regexp.MustCompile(`(?m)^(\w+?)(?:_bucket|_sum|_count)?\{([^}]*)\} `)
	labelName  = regexp.MustCompile(`(\w+)="`)
)

func scrape(t *testing.T, h http.Handler, into map[string]family) {
	t.Helper()
	text := serve(h, "GET", "/metrics", "").Body.String()
	for _, m := range typeLine.FindAllStringSubmatch(text, -1) {
		into[m[1]] = family{typ: m[2], labels: "—"}
	}
	for _, m := range seriesLine.FindAllStringSubmatch(text, -1) {
		var names []string
		for _, l := range labelName.FindAllStringSubmatch(m[2], -1) {
			if l[1] != "le" {
				names = append(names, l[1])
			}
		}
		if f, ok := into[m[1]]; ok && len(names) > 0 {
			f.labels = strings.Join(names, ", ")
			into[m[1]] = f
		}
	}
}

// TestMetricsTable holds the README's "Exported metrics" table to what the two
// servers export, both ways: every scraped family has a row with its type and
// label names, and every row is a family some server exports. Both servers
// have taken a request and the coordinator has probed, proxied to and given up
// on its dead backend first, so every labelled family has a series to read its
// label names from. Mutation check: registering one more counter, deleting one
// row, and changing a row's type or labels each fail it.
func TestMetricsTable(t *testing.T) {
	srv, coord := servers(t)
	spec := `{"scheme":"PR","pattern":"PAT271","radix":[2,2],"rate":0.02,"warmup":-1,"measure":500}`
	serve(srv, "POST", "/v1/runs", spec)
	serve(coord, "POST", "/v1/runs", spec)
	probed := func() bool {
		return strings.Contains(serve(coord, "GET", "/metrics", "").Body.String(), "simring_probes_total{")
	}
	for deadline := time.Now().Add(5 * time.Second); coord.LiveBackends() > 0 || !probed(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the dead backend was never probed, or its breaker never opened")
		}
	}
	exported := map[string]family{}
	scrape(t, srv, exported)
	scrape(t, coord, exported)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(readme)
	section = section[strings.Index(section, "#### Exported metrics"):]
	section = section[:strings.Index(section, "\n#")]
	rows := regexp.MustCompile("(?m)^\\| `(\\w+)` \\| (\\w+) \\| \\w+ \\| ([^|]+) \\| [^|]+ \\|$").FindAllStringSubmatch(section, -1)
	documented := map[string]bool{}
	for _, row := range rows {
		documented[row[1]] = true
		got, ok := exported[row[1]]
		if !ok {
			t.Errorf("the table documents %s, which neither server exports", row[1])
		} else if want := (family{row[2], strings.TrimSpace(row[3])}); got != want {
			t.Errorf("%s is exported as %+v, documented as %+v", row[1], got, want)
		}
	}
	for name := range exported {
		if !documented[name] {
			t.Errorf("%s is exported and has no row in the README's table", name)
		}
	}
	if len(rows) < 40 {
		t.Errorf("only %d rows parsed from the table", len(rows))
	}
}

// TestRequestCounterCardinality: the request counter is labelled by the route
// pattern that matched, not the path asked for, and by a method the patterns
// name or "other", not the method sent, so 10,000 distinct specs, 10,000
// paths that exist nowhere and 10,000 methods no route takes leave it with at
// most routes x methods x codes series, on either server.
func TestRequestCounterCardinality(t *testing.T) {
	srv, coord := servers(t)
	for name, h := range map[string]http.Handler{"simsvc": srv, "simring": coord} {
		for i := 0; i < 10000; i++ {
			serve(h, "POST", "/v1/runs", fmt.Sprintf(`{"scheme":"PR","pattern":"PAT271","radix":[2,2],"warmup":-1,"measure":500,"seed":%d}`, i+1))
			serve(h, "GET", fmt.Sprintf("/v1/runs/j-%d", 900000+i), "")
			serve(h, "GET", fmt.Sprintf("/no/such/%d", i), "")
			serve(h, fmt.Sprintf("JUNK%d", i), "/v1/runs", "")
		}
		text := serve(h, "GET", "/metrics", "").Body.String()
		series := regexp.MustCompile(`(?m)^`+name+`_http_requests_total\{method="(\w+)",route="([^"]*)",code="(\d+)"\} (\d+)$`).FindAllStringSubmatch(text, -1)
		methods, routes, codes, total := map[string]bool{}, map[string]bool{}, map[string]bool{}, 0
		for _, m := range series {
			methods[m[1]], routes[m[2]], codes[m[3]] = true, true, true
			n, _ := strconv.Atoi(m[4])
			total += n
		}
		for r := range routes {
			if r != "/v1/runs" && r != "/v1/runs/{id}" && r != "other" {
				t.Errorf("%s: route label %q is not a route pattern", name, r)
			}
		}
		for m := range methods {
			if m != "GET" && m != "POST" && m != "other" {
				t.Errorf("%s: method label %q is not a method a route names", name, m)
			}
		}
		if total != 40000 || len(series) > len(methods)*len(routes)*len(codes) || len(series) > 12 {
			t.Errorf("%s: %d requests in %d series (%d methods, %d routes, %d codes):\n%v",
				name, total, len(series), len(methods), len(routes), len(codes), series)
		}
	}
}
