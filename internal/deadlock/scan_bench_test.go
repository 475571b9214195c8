package deadlock_test

import (
	"testing"

	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

// scanPoint builds a network for measuring ScanAt alone: scans are installed
// but never due, so only the caller drives them. The load points are the
// benchmark's (8x8 torus, PR at 4 VCs, PAT271): an idle fabric, the sparse
// rate where nearly nothing is blocked, and the saturation knee. knotted is
// the scarce-resource 4x4 run of TestKnotsFormWithoutRecovery, advanced until
// a knot stands, so every scan republishes flags and counts components.
func scanPoint(tb testing.TB, name string) *network.Network {
	tb.Helper()
	cfg := network.DefaultConfig()
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT271
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = 1<<30, 1, 0 // stay in warmup
	cfg.CWGInterval = 1 << 40
	cfg.Seed = 1
	switch name {
	case "idle":
		cfg.Rate = 0
	case "rate0.001":
		cfg.Rate = 0.001
	case "knee0.012":
		cfg.Rate = 0.012
	case "knotted":
		cfg.Radix = []int{4, 4}
		cfg.VCs, cfg.QueueCap = 2, 2
		cfg.Rate = 0.03
		cfg.Seed = 5
		cfg.DetectThreshold, cfg.RouterTimeout = 1<<30, 1<<30
	}
	n, err := network.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if name == "knotted" {
		n.Rescue.Lose() // no recovery: the knot stays
		for locked := 0; locked == 0; locked, _ = n.Detector.ScanAt(-1) {
			if n.Clock.Now() > 20000 {
				tb.Fatal("no knot formed")
			}
			n.RunCycles(100)
		}
		return n
	}
	n.RunCycles(4000)
	return n
}

var scanPoints = []string{"idle", "rate0.001", "knee0.012", "knotted"}

// BenchmarkScanAt is the scan's own ledger entry (BENCH_PR14.json): one
// ScanAt on a standing network state per iteration.
func BenchmarkScanAt(b *testing.B) {
	for _, name := range scanPoints {
		b.Run(name, func(b *testing.B) {
			n := scanPoint(b, name)
			now := n.Clock.Now()
			n.Detector.ScanAt(now) // grow the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Detector.ScanAt(now)
			}
		})
	}
}

// TestScanAtZeroAllocs pins the scan itself: with Forensics off, a scan that
// finds no knot allocates nothing once the detector's scratch has grown to
// the load's blocked set. The knee point must actually have blocked
// resources to rank and search, or the pin would only cover the early out.
func TestScanAtZeroAllocs(t *testing.T) {
	for _, name := range scanPoints[:3] {
		n := scanPoint(t, name)
		now := n.Clock.Now()
		if locked, _ := n.Detector.ScanAt(now); locked != 0 {
			t.Fatalf("%s: %d resources knotted; the pin is for the no-knot scan", name, locked)
		}
		if name == "knee0.012" {
			blocked := 0
			l := n.Detector.Layout()
			for v := 0; v < l.Total; v++ {
				if b, _ := l.ClassifyVertex(n, v, nil); b {
					blocked++
				}
			}
			if blocked == 0 {
				t.Fatalf("%s: nothing blocked; the pin needs the knot search to run", name)
			}
		}
		if avg := testing.AllocsPerRun(100, func() { n.Detector.ScanAt(now) }); avg != 0 {
			t.Errorf("%s: ScanAt allocated %.2f objects/scan, want 0", name, avg)
		}
	}
}
