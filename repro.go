// Package repro is the public API of this reproduction of "Efficient
// Handling of Message-Dependent Deadlock in Multiprocessor/Multicomputer
// Systems" (Song & Pinkston, IPPS 2001).
//
// It exposes the flit-level wormhole network simulator, the three
// message-dependent deadlock handling techniques the paper evaluates —
// strict avoidance (SA), Origin2000-style deflective recovery (DR), and the
// proposed Extended Disha Sequential progressive recovery (PR) — the
// synthetic transaction patterns of Table 3, the MSI trace-driven workload
// substrate, and the experiment harness that regenerates every table and
// figure of the paper's evaluation.
//
// Quick start:
//
//	cfg := repro.DefaultConfig()
//	cfg.Scheme = repro.PR
//	cfg.Pattern = repro.PAT271
//	cfg.Rate = 0.01
//	sim, err := repro.NewSimulator(cfg)
//	if err != nil { ... }
//	res := sim.Run()
//	fmt.Printf("throughput %.4f flits/node/cycle, latency %.1f cycles\n",
//		res.Throughput, res.AvgLatency)
package repro

import (
	"context"
	"io"

	"repro/internal/experiments"
	"repro/internal/netiface"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/stats"
)

// Config parameterizes a simulation; see network.Config for field docs. The
// zero value is not usable — start from DefaultConfig.
type Config = network.Config

// DefaultConfig returns the paper's Table 2 defaults.
func DefaultConfig() Config { return network.DefaultConfig() }

// Scheme identifies a message-dependent deadlock handling technique.
type Scheme = schemes.Kind

// The techniques evaluated in the paper, plus the sufficient-queue
// avoidance baseline its Section 2.1 describes.
const (
	// SA is strict avoidance: one logical network per message type.
	SA = schemes.SA
	// DR is deflective recovery: two logical networks plus Origin2000
	// backoff replies.
	DR = schemes.DR
	// PR is the proposed progressive recovery (Extended Disha Sequential).
	PR = schemes.PR
	// SQ is sufficient-queue avoidance (IBM SP2 style): shared channels
	// with queues of O(endpoints x outstanding) messages so that messages
	// always sink.
	SQ = schemes.SQ
)

// Pattern is a transaction pattern (message-type distribution).
type Pattern = protocol.Pattern

// The five synthetic patterns of Table 3 plus the MSI trace pattern.
var (
	PAT100 = protocol.PAT100
	PAT721 = protocol.PAT721
	PAT451 = protocol.PAT451
	PAT271 = protocol.PAT271
	PAT280 = protocol.PAT280
	MSI    = protocol.MSI
)

// Queue allocation modes for Figure 11-style ablations; assign to
// Config.QueueMode (-1 keeps each scheme's canonical arrangement).
const (
	QueueShared   = netiface.QueueShared
	QueuePerClass = netiface.QueuePerClass
	QueuePerType  = netiface.QueuePerType
)

// Simulator is one configured system.
type Simulator struct {
	net *network.Network
}

// NewSimulator builds a simulator, validating the configuration the same
// way the paper's figures do: configurations that cannot exist (e.g. SA
// with four VCs and a chain length above two, or DR on a chain-2 pattern)
// return an error.
func NewSimulator(cfg Config) (*Simulator, error) {
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulator{net: n}, nil
}

// Results summarizes one run.
type Results = stats.Summary

// Run executes warmup, measurement, and drain, and summarizes.
func (s *Simulator) Run() Results {
	return s.net.Run().Summary(s.net.Quiescent())
}

// Network exposes the underlying system for advanced inspection (router and
// NI state, token position, CWG detector).
func (s *Simulator) Network() *network.Network { return s.net }

// Point is one sample of a latency-throughput (Burton Normal Form) curve.
type Point = stats.Point

// Series is one BNF curve.
type Series = stats.Series

// SweepLoads runs the configuration across an applied-load ladder and
// returns the BNF series, stopping just beyond saturation as the paper's
// evaluations do. Cancelling ctx stops the sweep mid-run.
func SweepLoads(ctx context.Context, cfg Config, rates []float64, name string) (Series, error) {
	return experiments.Sweep(ctx, cfg, rates, name)
}

// FormatSeries renders BNF series as an aligned text table.
func FormatSeries(title string, series []Series, w io.Writer) {
	io.WriteString(w, stats.FormatBNF(title, series))
}
