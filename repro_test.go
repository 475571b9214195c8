package repro

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Warmup = 500
	cfg.Measure = 2500
	cfg.MaxDrain = 6000
	return cfg
}

func TestPublicAPIQuickRun(t *testing.T) {
	cfg := fastConfig()
	cfg.Scheme = PR
	cfg.Pattern = PAT271
	cfg.Rate = 0.005
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.Throughput <= 0 || res.AvgLatency <= 0 || res.Transactions == 0 {
		t.Fatalf("implausible results: %+v", res)
	}
	if !res.Drained {
		t.Fatal("did not drain")
	}
	if sim.Network() == nil {
		t.Fatal("network accessor nil")
	}
}

func TestPublicAPIRejectsInvalidConfigs(t *testing.T) {
	cfg := fastConfig()
	cfg.Scheme = SA
	cfg.Pattern = PAT721
	cfg.VCs = 4
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("SA/PAT721/4VC accepted")
	}
	cfg = fastConfig()
	cfg.Scheme = DR
	cfg.Pattern = PAT100
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("DR/PAT100 accepted")
	}
	cfg = fastConfig()
	cfg.Rate = 2.0
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}

func TestSweepLoadsPublic(t *testing.T) {
	cfg := fastConfig()
	cfg.Scheme = PR
	cfg.Pattern = PAT100
	s, err := SweepLoads(context.Background(), cfg, []float64{0.002, 0.008}, "pr")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 || s.Name != "pr" {
		t.Fatalf("sweep = %+v", s)
	}
	var buf bytes.Buffer
	FormatSeries("test", []Series{s}, &buf)
	if !strings.Contains(buf.String(), "pr") {
		t.Fatal("format missing series name")
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(context.Background(), "table1", ScaleSmoke, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Water") {
		t.Fatal("table1 output incomplete")
	}
	if err := RunExperiment(context.Background(), "nonsense", ScaleSmoke, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestQueueModeConstantsDistinct(t *testing.T) {
	if QueueShared == QueuePerClass || QueuePerClass == QueuePerType {
		t.Fatal("queue mode constants collide")
	}
}

func TestSchemeStrings(t *testing.T) {
	if SA.String() != "SA" || DR.String() != "DR" || PR.String() != "PR" {
		t.Fatal("scheme strings wrong")
	}
}
