package message

// Probe is one in-flight Chandy–Misra–Haas edge-chasing probe: the in-band
// detection message the distributed detector (internal/probe) injects at
// blocked endpoints and forwards along channel-wait-for edges. It is a
// control message one flit long — it carries no payload and no transaction,
// only the origin and receiver of the edge-chasing algorithm's triple (the
// forwarding vertex is read by nothing, so it is not carried), expressed as
// CWG vertex IDs (see deadlock.Layout), plus launch bookkeeping.
type Probe struct {
	// Origin is the vertex whose blocking launched the detection attempt; a
	// probe arriving back at Origin declares deadlock.
	Origin int
	// Target is the vertex the probe is travelling to.
	Target int
	// Seq identifies the launch this copy belongs to (monotonic per
	// engine); duplicate suppression keys on (Seq, Target), bounding each
	// launch's fan-out to one visit per resource.
	Seq int64
	// Born is the cycle local blocking began at the origin, so a returning
	// probe reports full blocking-onset-to-declaration latency.
	Born int64

	// pooled guards against double-free through a Pool.
	pooled bool
}

// Pooled reports whether the probe currently sits on a Pool free list.
func (p *Probe) Pooled() bool { return p.pooled }

// NewProbe returns a reset probe, recycled when available.
func (p *Pool) NewProbe(origin, target int, seq, born int64) *Probe {
	if p == nil || len(p.probes) == 0 {
		return &Probe{Origin: origin, Target: target, Seq: seq, Born: born}
	}
	pr := p.probes[len(p.probes)-1]
	p.probes = p.probes[:len(p.probes)-1]
	*pr = Probe{Origin: origin, Target: target, Seq: seq, Born: born}
	return pr
}

// PutProbe returns a retired probe to the free list.
func (p *Pool) PutProbe(pr *Probe) {
	if p == nil || pr == nil {
		return
	}
	if pr.pooled {
		panic("message: double PutProbe")
	}
	pr.pooled = true
	p.probes = append(p.probes, pr)
}
