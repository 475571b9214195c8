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

// buildNetwork constructs the network a normalized spec describes,
// including the trace-driven source for TraceApp specs.
func buildNetwork(spec RunSpec) (*network.Network, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	if spec.TraceApp == "" {
		return network.New(cfg)
	}
	app, ok := tracegen.AppByName(spec.TraceApp)
	if !ok {
		return nil, fmt.Errorf("simsvc: unknown trace app %q", spec.TraceApp)
	}
	n, _, err := tracegen.NewNetwork(cfg, app)
	return n, err
}

// Execute runs a normalized spec to completion and returns the marshalled
// Result payload. The run is stepped through Network.RunContext, so a
// cancelled or timed-out ctx aborts mid-simulation; aborted or
// invariant-violating runs return an error and must not be cached. A
// non-nil bus receives the run's trace events.
func Execute(ctx context.Context, spec RunSpec, bus *obs.Bus) ([]byte, error) {
	n, err := buildNetwork(spec)
	if err != nil {
		return nil, err
	}
	if bus != nil {
		n.AttachObs(bus)
	}
	var checker *check.Checker
	if spec.Check {
		checker = check.Attach(n, check.Options{})
	}
	var injector *fault.Injector
	if spec.Faults != nil {
		injector, err = fault.Attach(n, spec.Faults)
		if err != nil {
			return nil, err
		}
	}
	dig := check.AttachDigest(n)
	if err := n.RunContext(ctx); err != nil {
		return nil, err
	}
	if checker != nil {
		if vs := checker.Violations(); len(vs) > 0 {
			return nil, fmt.Errorf("simsvc: invariant violation: %s", vs[0].Format())
		}
	}
	res := Result{
		SpecHash: spec.Hash(),
		Spec:     spec,
		Summary: Summary{
			Summary:    n.Stats.Summary(n.Quiescent()),
			Digest:     dig.String(),
			Deliveries: dig.Count(),
		},
	}
	if checker != nil {
		res.Summary.InvariantChecks = checker.Checks()
	}
	if injector != nil {
		rep := injector.Report()
		res.Summary.Fault = &rep
	}
	encodeStart := time.Now()
	payload, err := json.Marshal(res)
	telemetry.AddSpan(ctx, "encode", time.Since(encodeStart))
	if err != nil {
		return nil, err
	}
	return payload, nil
}
