package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestAblationsRunAtSmokeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	if err := Ablations(context.Background(), &buf, Smoke); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, section := range []string{
		"detection threshold", "token hop time", "SA channel sharing",
		"16 vs 64", "bristling factor", "invalidation fanout", "chain length",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("ablation report missing %q", section)
		}
	}
	// DR on pure chain-2 must be reported as omitted, not run.
	if !strings.Contains(out, "CHAIN2 DR") || !strings.Contains(out, "omitted") {
		t.Error("chain-2 DR omission not reported")
	}
}

func TestFanoutPatternValid(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		p := fanoutPattern(k)
		if err := p.Validate(); err != nil {
			t.Errorf("fanout %d: %v", k, err)
		}
	}
}
