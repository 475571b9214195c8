package main

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/stats"
)

// runOutput is everything a caller of one engine run sees; two runs of the
// same configuration must agree on all of it.
type runOutput struct {
	Digest     uint64
	Deliveries int64
	Clock      int64
	Throughput float64
	AvgLatency float64
	P50, P99   int64
	Flits      int64
	Detects    int64
	Deflects   int64
	Rescues    int64
	Deadlocks  int64
}

func summarise(n *network.Network, st *stats.Collector, dig *check.Digest) runOutput {
	return runOutput{
		Digest: dig.Sum(), Deliveries: dig.Count(), Clock: n.Clock.Now(),
		Throughput: st.Throughput(), AvgLatency: st.AvgLatency(),
		P50: st.LatencyP50(), P99: st.LatencyP99(),
		Flits: st.DeliveredFlits, Detects: st.DetectEvents,
		Deflects: st.Deflections, Rescues: st.Rescues, Deadlocks: st.CWGDeadlocks,
	}
}

// simCounts are the exact per-block simulation counters of the per-layer
// report: any speed-only change must leave them identical.
type simCounts struct {
	cycles, flits, detects, deflects, rescues, deadlocks int64
	digest                                               uint64
}

func (c *simCounts) add(o runOutput) {
	c.cycles += o.Clock
	c.flits += o.Flits
	c.detects += o.Detects
	c.deflects += o.Deflects
	c.rescues += o.Rescues
	c.deadlocks += o.Deadlocks
	c.digest = c.digest*1099511628211 ^ o.Digest
}

// engineRunner is an engine workload: a block builds, runs and summarises
// each configuration once.
type engineRunner struct {
	cfgs []network.Config
	// nets keeps the newest network of every configuration reachable, so the
	// live-heap reading after a block includes what a caller holding its
	// results would hold.
	nets []*network.Network
	ref  []runOutput // the first block's outputs
	cur  []runOutput
	fail int
}

func newEngineRunner(cfgs []network.Config) *engineRunner {
	return &engineRunner{cfgs: cfgs, nets: make([]*network.Network, len(cfgs)),
		cur: make([]runOutput, len(cfgs))}
}

func (e *engineRunner) segments() int  { return len(e.cfgs) }
func (e *engineRunner) segOps() int    { return 1 }
func (e *engineRunner) prepare() error { return nil }

func (e *engineRunner) probeConfig() network.Config { return e.cfgs[0] }
func (e *engineRunner) failedOps() int              { return e.fail }
func (e *engineRunner) counts() simCounts {
	var c simCounts
	for _, o := range e.cur {
		c.add(o)
	}
	return c
}

// runOne is the op: network.New + Run + summarise. dense forces the classic
// full sweep for the differential check.
func runOne(cfg network.Config, dense bool, rec *recorder, op int) (*network.Network, runOutput, error) {
	root := rec.begin("op", -1, op)
	s := rec.begin("network.new", root, op)
	n, err := network.New(cfg)
	rec.end(s)
	if err != nil {
		return nil, runOutput{}, fmt.Errorf("network.New(%v %s): %w", cfg.Scheme, cfg.Pattern.Name, err)
	}
	n.SetDense(dense)
	dig := check.AttachDigest(n)
	s = rec.begin("network.run", root, op)
	st := n.Run()
	rec.end(s)
	s = rec.begin("stats.summarise", root, op)
	out := summarise(n, st, dig)
	rec.end(s)
	rec.end(root)
	return n, out, nil
}

func (e *engineRunner) runSegment(i int, rec *recorder, lat []time.Duration) (int64, error) {
	t0 := time.Now()
	n, out, err := runOne(e.cfgs[i], false, rec, i)
	if err != nil {
		return 0, err
	}
	lat[0] = time.Since(t0)
	e.nets[i], e.cur[i] = n, out
	return out.Clock, nil
}

// finish checks the block against the first: same (digest, deliveries,
// final clock, counters) per op.
func (e *engineRunner) finish() error {
	if e.ref == nil {
		e.ref = append([]runOutput(nil), e.cur...)
		return nil
	}
	for i := range e.cur {
		if e.cur[i] != e.ref[i] {
			e.fail++
		}
	}
	return nil
}

// verify runs every configuration once more with dense stepping; the
// active-set engine must be indistinguishable from it.
func (e *engineRunner) verify() (attempted, failed int, err error) {
	for i, cfg := range e.cfgs {
		_, out, err := runOne(cfg, true, nil, i)
		if err != nil {
			return attempted, failed, err
		}
		attempted++
		if out != e.ref[i] || out.Deliveries == 0 {
			failed++
		}
	}
	return attempted, failed, nil
}
