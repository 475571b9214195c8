// Package simsvc turns the simulator into a long-running service: a
// canonical run specification with a content hash, an LRU + on-disk
// result cache keyed by that hash, a bounded job scheduler with
// singleflight deduplication, and an HTTP JSON API. Because runs are
// bit-deterministic functions of their configuration (PR 3's delivery
// digests prove it), a spec hash is a perfect cache key: any sweep point
// ever computed can be served back byte-identically without re-simulating.
package simsvc

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/fnv1a"
	"repro/internal/netiface"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/tracegen"
)

// RunSpec is the canonical description of one simulation run. JSON field
// names are the wire format of the HTTP API. Zero values mean "use the
// default" (listed per field); the sentinel -1 requests the literal zero
// where that is meaningful (warmup, drain, CWG scanning, outstanding
// bound). Normalized resolves every default, so two specs that differ only
// in explicitness hash identically.
type RunSpec struct {
	// Scheme is the deadlock-handling technique: SA, DR, PR, SQ, or AB.
	// Default PR.
	Scheme string `json:"scheme,omitempty"`
	// Pattern names a synthetic transaction pattern (PAT100, PAT721,
	// PAT451, PAT271, PAT280, MSI). Default PAT271. Mutually exclusive
	// with TraceApp.
	Pattern string `json:"pattern,omitempty"`
	// TraceApp selects a trace-driven run instead of a synthetic one:
	// FFT, LU, Radix, or Water. The MSI pattern, zero warmup, and the
	// Section 4.2.1 detector settings are implied; Measure is the trace
	// length in cycles.
	TraceApp string `json:"trace_app,omitempty"`
	// Radix gives per-dimension router counts. Default [8,8]; trace runs
	// default [4,4].
	Radix []int `json:"radix,omitempty"`
	// Mesh drops the wraparound links.
	Mesh bool `json:"mesh,omitempty"`
	// Bristling is processors per router (default 1).
	Bristling int `json:"bristling,omitempty"`
	// VCs is virtual channels per link (default 4).
	VCs int `json:"vcs,omitempty"`
	// FlitBuf is flit buffers per VC (default 2).
	FlitBuf int `json:"flitbuf,omitempty"`
	// QueueCap is the endpoint message-queue size (default 16).
	QueueCap int `json:"queue_cap,omitempty"`
	// QueueMode overrides the scheme's canonical queue arrangement:
	// "default", "shared", "class", or "type".
	QueueMode string `json:"queue_mode,omitempty"`
	// ServiceTime is memory-controller occupancy per message (default 40).
	ServiceTime int `json:"service_time,omitempty"`
	// Rate is the request-generation probability per node per cycle
	// (default 0.01). Must be 0 for trace runs.
	Rate float64 `json:"rate,omitempty"`
	// MaxOutstanding bounds in-flight transactions per node (default 16;
	// -1 unbounded).
	MaxOutstanding int `json:"max_outstanding,omitempty"`
	// Seed drives all randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Warmup, Measure, MaxDrain are the run phases in cycles. Defaults
	// 2000/8000/10000 for synthetic runs; trace runs force Warmup 0 and
	// default Measure (the trace length) to 50000. -1 means zero.
	Warmup   int64 `json:"warmup,omitempty"`
	Measure  int64 `json:"measure,omitempty"`
	MaxDrain int64 `json:"max_drain,omitempty"`
	// CWGInterval is the channel-wait-for-graph scan period (default 50;
	// -1 disables scanning).
	CWGInterval int64 `json:"cwg_interval,omitempty"`
	// Check attaches the runtime invariant checker; a violation fails the
	// job instead of caching a corrupted result.
	Check bool `json:"check,omitempty"`
	// Faults is an optional deterministic fault plan (internal/fault)
	// injected into the run. It participates in the canonical encoding, so
	// a faulted run caches under its own hash and a fault-free spec hashes
	// exactly as before this field existed.
	Faults *fault.Plan `json:"faults,omitempty"`
}

// resolveSentinel maps the 0-means-default / -1-means-zero convention. Any
// other negative value passes through for Config.Validate to refuse.
func resolveSentinel(v, def int64) int64 {
	switch v {
	case 0:
		return def
	case -1:
		return 0
	}
	return v
}

// Normalized resolves every default and validates the spec, returning the
// fully explicit form that Canonical and Hash operate on. The returned
// spec round-trips — normalizing it again is the identity — unless it holds a
// zero a -1 asked for, which reads as "use the default" when normalized again
// (FuzzSpecRoundTrip pins both). What is decided
// here is what only the wire format knows — defaults, the -1 sentinels, what
// a trace run implies, canonical spellings for the hash, the fault plan;
// every range and validity-envelope rule is network.Config.Validate's.
func (s RunSpec) Normalized() (RunSpec, error) {
	n := s

	if n.Scheme == "" {
		n.Scheme = "PR"
	}
	if n.TraceApp != "" {
		if s.Pattern != "" && s.Pattern != protocol.MSI.Name {
			return n, fmt.Errorf("simsvc: trace run implies the MSI pattern, got %q", s.Pattern)
		}
		if s.Rate != 0 {
			return n, fmt.Errorf("simsvc: rate is meaningless for trace runs")
		}
		app, ok := tracegen.AppByName(n.TraceApp)
		if !ok {
			return n, fmt.Errorf("simsvc: unknown trace app %q (want FFT, LU, Radix, or Water)", n.TraceApp)
		}
		n.TraceApp = app.Name
		n.Pattern = protocol.MSI.Name
		if s.Warmup != 0 && s.Warmup != -1 {
			return n, fmt.Errorf("simsvc: trace runs have no warmup phase")
		}
		n.Warmup = 0
	} else {
		if n.Pattern == "" {
			n.Pattern = protocol.PAT271.Name
		}
		if n.Rate == 0 {
			n.Rate = 0.01
		}
		n.Warmup = resolveSentinel(n.Warmup, 2000)
	}

	if len(n.Radix) == 0 {
		if n.TraceApp != "" {
			n.Radix = []int{4, 4}
		} else {
			n.Radix = []int{8, 8}
		}
	}
	if n.Bristling == 0 {
		n.Bristling = 1
	}
	if n.VCs == 0 {
		n.VCs = 4
	}
	if n.FlitBuf == 0 {
		n.FlitBuf = 2
	}
	if n.QueueCap == 0 {
		n.QueueCap = 16
	}
	if n.ServiceTime == 0 {
		n.ServiceTime = 40
	}
	if n.QueueMode == "" {
		n.QueueMode = "default"
	}
	n.MaxOutstanding = int(resolveSentinel(int64(n.MaxOutstanding), 16))
	if n.Seed == 0 {
		n.Seed = 1
	}
	if n.Measure == 0 {
		n.Measure = 8000
		if n.TraceApp != "" {
			n.Measure = 50000
		}
	}
	n.MaxDrain = resolveSentinel(n.MaxDrain, 10000)
	n.CWGInterval = resolveSentinel(n.CWGInterval, 50)

	// Resolving the names is what rejects an unknown one; the scheme comes
	// back in its canonical spelling (patterns and queue modes only match
	// exactly). Then the one admission check, which builds nothing.
	cfg, err := n.config()
	if err != nil {
		return n, err
	}
	n.Scheme = cfg.Scheme.String()
	if err := cfg.Validate(); err != nil {
		return n, err
	}

	// Fault plans validate against the topology dimensions without building
	// a network; an empty plan normalizes away entirely so it hashes
	// identically to no plan at all.
	if n.Faults != nil {
		if n.Faults.Empty() {
			n.Faults = nil
		} else {
			routers, endpoints := cfg.Size()
			if err := n.Faults.Validate(routers, 2*len(n.Radix), endpoints); err != nil {
				return n, err
			}
			n.Faults = n.Faults.Normalized()
		}
	}
	return n, nil
}

// config maps a spec whose defaults are resolved onto the simulator
// configuration; it fails only on a name it cannot resolve. What a trace run
// implies beyond that is tracegen.NewNetwork's.
func (s RunSpec) config() (network.Config, error) {
	cfg := network.DefaultConfig()
	var err error
	if cfg.Scheme, err = schemes.KindByName(s.Scheme); err != nil {
		return cfg, err
	}
	if cfg.Pattern, err = protocol.PatternByName(s.Pattern); err != nil {
		return cfg, err
	}
	if cfg.QueueMode, err = netiface.QueueModeByName(s.QueueMode); err != nil {
		return cfg, err
	}
	cfg.Radix = s.Radix
	cfg.Mesh = s.Mesh
	cfg.Bristling = s.Bristling
	cfg.VCs = s.VCs
	cfg.FlitBuf = s.FlitBuf
	cfg.QueueCap = s.QueueCap
	cfg.ServiceTime = s.ServiceTime
	cfg.Rate = s.Rate
	cfg.MaxOutstanding = s.MaxOutstanding
	cfg.Seed = s.Seed
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = s.Warmup, s.Measure, s.MaxDrain
	cfg.CWGInterval = s.CWGInterval
	return cfg, nil
}

// Canonical renders a normalized spec as a fixed-order key=value encoding,
// the preimage of Hash. Every field is always present, so the encoding is
// injective over normalized specs and stable across code changes that only
// reorder struct fields.
func (s RunSpec) Canonical() string { return string(s.appendCanonical(nil)) }

// appendCanonical appends Canonical's bytes to dst: one line per field, in a
// fixed order, each key=value.
func (s RunSpec) appendCanonical(dst []byte) []byte {
	dst = append(dst, "scheme="...)
	dst = append(dst, s.Scheme...)
	dst = append(dst, "\npattern="...)
	dst = append(dst, s.Pattern...)
	dst = append(dst, "\ntrace_app="...)
	dst = append(dst, s.TraceApp...)
	dst = append(dst, "\nradix="...)
	for i, r := range s.Radix {
		if i > 0 {
			dst = append(dst, 'x')
		}
		dst = strconv.AppendInt(dst, int64(r), 10)
	}
	dst = strconv.AppendBool(append(dst, "\nmesh="...), s.Mesh)
	dst = strconv.AppendInt(append(dst, "\nbristling="...), int64(s.Bristling), 10)
	dst = strconv.AppendInt(append(dst, "\nvcs="...), int64(s.VCs), 10)
	dst = strconv.AppendInt(append(dst, "\nflitbuf="...), int64(s.FlitBuf), 10)
	dst = strconv.AppendInt(append(dst, "\nqueue_cap="...), int64(s.QueueCap), 10)
	dst = append(append(dst, "\nqueue_mode="...), s.QueueMode...)
	dst = strconv.AppendInt(append(dst, "\nservice_time="...), int64(s.ServiceTime), 10)
	dst = strconv.AppendFloat(append(dst, "\nrate="...), s.Rate, 'g', -1, 64)
	dst = strconv.AppendInt(append(dst, "\nmax_outstanding="...), int64(s.MaxOutstanding), 10)
	dst = strconv.AppendUint(append(dst, "\nseed="...), s.Seed, 10)
	dst = strconv.AppendInt(append(dst, "\nwarmup="...), s.Warmup, 10)
	dst = strconv.AppendInt(append(dst, "\nmeasure="...), s.Measure, 10)
	dst = strconv.AppendInt(append(dst, "\nmax_drain="...), s.MaxDrain, 10)
	dst = strconv.AppendInt(append(dst, "\ncwg_interval="...), s.CWGInterval, 10)
	dst = strconv.AppendBool(append(dst, "\ncheck="...), s.Check)
	dst = s.Faults.AppendCanonical(append(dst, "\nfaults="...))
	return append(dst, '\n')
}

// Hash returns the 16-hex-digit content hash of a normalized spec — the
// cache key and the /v1/runs spec_hash: FNV-1a of its canonical bytes, most
// significant digit first. The bytes are built in a stack buffer, which only
// a long fault plan outgrows.
func (s RunSpec) Hash() string {
	var canon [512]byte
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], fnv1a.Bytes(fnv1a.Offset, s.appendCanonical(canon[:0])))
	var digits [16]byte
	return string(hex.AppendEncode(digits[:0], sum[:]))
}
