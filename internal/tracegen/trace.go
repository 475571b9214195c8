// Package tracegen provides the trace substrate for the paper's
// application-driven experiments (Section 4.2). The paper drove FlexSim with
// RSIM execution traces of four Splash-2 applications (FFT, LU, Radix,
// Water); those traces are not available, so this package synthesizes
// equivalent traces calibrated to the paper's published per-application
// characteristics — the load-rate distributions of Figure 6 and the
// response-type mixes of Table 1 — while preserving burstiness by switching
// load levels in windows. The synthesized accesses are raw (cycle, cpu, op,
// address) records that are replayed through the real MSI directory engine
// (package coherence); the generator steers directory states so the engine's
// measured response mix lands on the target. NewNetwork is the one place a
// trace-driven run is set up.
package tracegen

import (
	"repro/internal/coherence"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Record is one processor data access.
type Record struct {
	Time int64
	CPU  uint16
	Op   coherence.Op
	Addr uint64
}

// Trace is an in-memory access trace.
type Trace struct {
	Records []Record
}

// NewNetwork builds the Section 4.2.1 trace-driven system: app's trace,
// cfg.Measure cycles long and generated from cfg.Seed, replayed by a Player
// as the network's only traffic source. It owns what makes a run
// trace-driven — the MSI pattern, no warmup, and a router timeout and
// detection threshold of 100 cycles: application loads sit far below
// saturation, so the laxer detector avoids spurious rescue captures during
// Radix's bursts while leaving genuine deadlocks (there are none, Section
// 4.2.2) recoverable. Every other field of cfg is the caller's.
func NewNetwork(cfg network.Config, app App) (*network.Network, *Player, error) {
	cfg.Pattern = protocol.MSI
	cfg.Warmup = 0
	cfg.RouterTimeout = 100
	cfg.DetectThreshold = 100
	var p *Player
	var perr error
	n, err := network.NewWithSource(cfg, func(e *protocol.Engine, t *protocol.Table, _ *sim.RNG, endpoints int) traffic.Source {
		tr := NewGenerator(app, endpoints, cfg.Seed).Generate(cfg.Measure)
		p, perr = NewPlayer(tr, e, t, endpoints)
		return p
	})
	if err == nil {
		err = perr
	}
	return n, p, err
}
