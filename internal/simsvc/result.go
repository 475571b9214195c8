package simsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
)

// Summary is the deterministic outcome of one run: everything here is a
// pure function of the normalized spec, which is what makes Result
// payloads cacheable byte-for-byte. Wall-clock timings deliberately live
// on the job record, not here.
type Summary struct {
	stats.Summary
	// Digest is the FNV-1a fingerprint of the complete delivery log; equal
	// digests mean behaviourally identical runs (internal/check).
	Digest     string `json:"digest"`
	Deliveries int64  `json:"deliveries"`
	// InvariantChecks counts completed checker sweeps when the spec
	// requested checking.
	InvariantChecks int64 `json:"invariant_checks,omitempty"`
	// Fault summarizes the injected faults and their cost when the spec
	// carried a fault plan; absent otherwise, keeping fault-free payloads
	// byte-identical to pre-fault builds.
	Fault *fault.Report `json:"fault,omitempty"`
}

// Result is the cached payload for one spec hash.
type Result struct {
	SpecHash string  `json:"spec_hash"`
	Spec     RunSpec `json:"spec"`
	Summary  Summary `json:"summary"`
}

// A Run is the simulation a normalized spec describes, built and not yet
// stepped. Execute steps one for the service, netsim one with its observers.
type Run struct {
	Net *network.Network
	// Checker is the invariant checker Check asks for, else nil.
	Checker  *check.Checker
	injector *fault.Injector // nil without a fault plan
	digest   *check.Digest
}

// NewRun builds the run a normalized spec describes. A non-nil bus is
// attached first and receives the run's trace events.
func NewRun(spec RunSpec, bus *obs.Bus) (*Run, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	var n *network.Network
	if spec.TraceApp == "" {
		n, err = network.New(cfg)
	} else if app, ok := tracegen.AppByName(spec.TraceApp); !ok {
		return nil, fmt.Errorf("simsvc: unknown trace app %q", spec.TraceApp)
	} else {
		n, _, err = tracegen.NewNetwork(cfg, app)
	}
	if err != nil {
		return nil, err
	}
	if bus != nil {
		n.AttachObs(bus)
	}
	r := &Run{Net: n}
	if spec.Check {
		r.Checker = check.Attach(n, check.Options{})
	}
	if spec.Faults != nil {
		if r.injector, err = fault.Attach(n, spec.Faults); err != nil {
			return nil, err
		}
	}
	r.digest = check.AttachDigest(n)
	return r, nil
}

// Summary is the outcome of a stepped run.
func (r *Run) Summary() Summary {
	s := Summary{
		Summary:    r.Net.Stats.Summary(r.Net.Quiescent()),
		Digest:     r.digest.String(),
		Deliveries: r.digest.Count(),
	}
	if r.Checker != nil {
		s.InvariantChecks = r.Checker.Checks()
	}
	if r.injector != nil {
		rep := r.injector.Report()
		s.Fault = &rep
	}
	return s
}

// Execute runs a normalized spec to completion and returns the marshalled
// Result payload. The run is stepped through Network.RunContext, so a
// cancelled or timed-out ctx aborts mid-simulation; aborted or
// invariant-violating runs return an error and must not be cached. A
// non-nil bus receives the run's trace events.
func Execute(ctx context.Context, spec RunSpec, bus *obs.Bus) ([]byte, error) {
	r, err := NewRun(spec, bus)
	if err != nil {
		return nil, err
	}
	if err := r.Net.RunContext(ctx); err != nil {
		return nil, err
	}
	if r.Checker != nil {
		if vs := r.Checker.Violations(); len(vs) > 0 {
			return nil, fmt.Errorf("simsvc: invariant violation: %s", vs[0].Format())
		}
	}
	res := Result{SpecHash: spec.Hash(), Spec: spec, Summary: r.Summary()}
	encodeStart := time.Now()
	payload, err := json.Marshal(res)
	telemetry.AddSpan(ctx, "encode", time.Since(encodeStart))
	return payload, err
}
