package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/simsvc"
)

// specArgs spells a spec body as netsim flags: each key is the flag of the
// same name, a radix is written 8x8, a true bool is the bare flag, and the
// fault plan goes to a file that -faults names.
func specArgs(t *testing.T, body string) []string {
	t.Helper()
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &keys); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(keys))
	for key := range keys {
		names = append(names, key)
	}
	sort.Strings(names)
	var args []string
	for _, key := range names {
		raw := keys[key]
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		switch v := v.(type) {
		case bool:
			args = append(args, fmt.Sprintf("-%s=%t", key, v))
		case string:
			args = append(args, "-"+key, v)
		case []any:
			dims := make([]string, len(v))
			for i, d := range v {
				dims[i] = fmt.Sprint(d)
			}
			args = append(args, "-"+key, strings.Join(dims, "x"))
		case map[string]any:
			path := filepath.Join(t.TempDir(), key+".json")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			args = append(args, "-"+key, path)
		default:
			args = append(args, "-"+key, string(raw))
		}
	}
	return args
}

// TestCLIEqualsService: netsim run with a spec's keys as flags is the run
// simsvc.Execute serves for that spec. It prints the payload's digest,
// deliveries and throughput, and under check its invariant sweeps. Mutation
// check: netsim ignoring -detector fails the probe row.
func TestCLIEqualsService(t *testing.T) {
	for _, c := range []struct{ name, body string }{
		{"SA-8VCs", `{"scheme":"SA","vcs":8,"radix":[4,4],"measure":1000,"check":true}`},
		{"DR", `{"scheme":"DR","radix":[4,4],"pattern":"PAT280","rate":0.03,"measure":1000,"seed":5}`},
		{"PR", `{"scheme":"PR","radix":[4,4],"vcs":2,"queue_cap":4,"rate":0.05,"warmup":-1,"measure":1500,"check":true}`},
		{"SQ", `{"scheme":"SQ","radix":[2,2],"queue_cap":64,"flitbuf":4,"service_time":20,"measure":1000}`},
		{"AB", `{"scheme":"AB","radix":[4,4],"rate":0.03,"measure":1000}`},
		{"mesh", `{"radix":[4,4],"mesh":true,"measure":1000}`},
		{"bristling-2-class", `{"radix":[4,4],"bristling":2,"queue_mode":"class","measure":1000}`},
		{"trace-FFT", `{"trace_app":"FFT","measure":3000,"check":true}`},
		{"faults", `{"radix":[4,4],"measure":1500,"check":true,"faults":{"seed":3,"events":[{"kind":"link-down","at":0,"router":9,"dir":0},{"kind":"token-loss","at":800}]}}`},
		{"probe", `{"radix":[4,4],"vcs":2,"queue_cap":4,"rate":0.05,"warmup":-1,"measure":1500,"detector":"probe","check":true}`},
		{"sentinels", `{"radix":[4,4],"warmup":-1,"measure":1000,"max_drain":-1,"cwg_interval":-1,"max_outstanding":-1}`},
	} {
		body := c.body
		t.Run(c.name, func(t *testing.T) {
			spec, err := simsvc.DecodeSpec([]byte(body))
			if err != nil {
				t.Fatal(err)
			}
			norm, err := spec.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			payload, err := simsvc.Execute(context.Background(), norm, nil)
			if err != nil {
				t.Fatal(err)
			}
			var res simsvc.Result
			if err := json.Unmarshal(payload, &res); err != nil {
				t.Fatal(err)
			}
			sweeps := "-"
			if spec.Check {
				sweeps = fmt.Sprint(res.Summary.InvariantChecks)
			}
			want := fmt.Sprintf("throughput %.4f, sweeps %s, digest %s %d",
				res.Summary.Throughput, sweeps, res.Summary.Digest, res.Summary.Deliveries)

			args := append(specArgs(t, body), "-digest")
			out, code := runNetsim(t, args...)
			if code != 0 && !(code == 2 && !res.Summary.Drained) {
				t.Fatalf("netsim %v: exit %d\n%s", args, code, out)
			}
			printed := func(line string) string {
				m := regexp.MustCompile(`(?m)^` + line).FindStringSubmatch(out)
				if m == nil {
					return "-"
				}
				return strings.Join(m[1:], " ")
			}
			got := fmt.Sprintf("throughput %s, sweeps %s, digest %s", printed(`throughput: +(\S+)`),
				printed(`invariant sweeps: +(\d+)`), printed(`delivery digest: +(\S+) \((\d+) deliveries\)`))
			if got != want {
				t.Errorf("netsim %v printed %s; simsvc.Execute's payload has %s", args, got, want)
			}
		})
	}
}
