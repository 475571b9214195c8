package main

import (
	"encoding/json"
	"math/rand"

	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/simsvc"
)

// sizes are the fixed op counts of one block. Work is fixed per block, never
// per duration, so allocation and heap numbers compare across hosts. A block
// is cut into segments of identical work (one engine op, or a chunk of
// requests) with the reference kernel run between them.
type sizes struct {
	loadedWarmup, loadedMeasure int64
	sparseWarmup, sparseMeasure int64
	hotKeys, hotRequests        int
	missSpecs                   int
	hotChunk, missChunk         int // ops per segment
	serveWarmup, serveMeasure   int64
	stepChunk                   int64 // cycles per timed RunCycles chunk
}

var fullSizes = sizes{
	loadedWarmup: 1000, loadedMeasure: 3000,
	sparseWarmup: 2000, sparseMeasure: 30000,
	hotKeys: 64, hotRequests: 24000,
	missSpecs: 150,
	hotChunk:  1500, missChunk: 15,
	serveWarmup: 500, serveMeasure: 500,
	stepChunk: 1024,
}

// quickSizes shrinks every block to milliseconds; -quick and the package
// tests run the whole harness on it.
var quickSizes = sizes{
	loadedWarmup: 100, loadedMeasure: 200,
	sparseWarmup: 100, sparseMeasure: 600,
	hotKeys: 8, hotRequests: 200,
	missSpecs: 6,
	hotChunk:  100, missChunk: 3,
	serveWarmup: 100, serveMeasure: 100,
	stepChunk: 64,
}

// seeds is a splitmix64 stream: the one place -seed enters the inputs.
type seeds uint64

func (s *seeds) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// engineConfigs returns the six engine ops of a block: {PR@4VC, DR@4VC,
// SA@8VC} x {PAT271, PAT721} on the 8x8 torus, each with its own seed. The
// drain phase is off so every op steps exactly warmup+measure cycles at the
// stated load; with it on, op length (and so allocation per op) varied 7%
// from seed to seed.
func engineConfigs(seed uint64, rate float64, warmup, measure int64) []network.Config {
	src := seeds(seed)
	var out []network.Config
	for _, sc := range []struct {
		kind schemes.Kind
		vcs  int
	}{{schemes.PR, 4}, {schemes.DR, 4}, {schemes.SA, 8}} {
		for _, pat := range []*protocol.Pattern{protocol.PAT271, protocol.PAT721} {
			cfg := network.DefaultConfig()
			cfg.Scheme, cfg.VCs, cfg.Pattern, cfg.Rate = sc.kind, sc.vcs, pat, rate
			cfg.Warmup, cfg.Measure, cfg.MaxDrain = warmup, measure, 0
			cfg.CWGInterval = 50
			cfg.Seed = src.next()
			out = append(out, cfg)
		}
	}
	return out
}

// serveSpec is one generated request: the body a client would POST and the
// normalized spec the service derives from it.
type serveSpec struct {
	body []byte
	norm simsvc.RunSpec
	hash string
}

// serveSpecs returns n distinct small specs (4x4 torus, PR/PAT271, no
// drain) differing only in seed.
func serveSpecs(seed uint64, n int, warmup, measure int64) ([]serveSpec, error) {
	src := seeds(seed)
	out := make([]serveSpec, n)
	for i := range out {
		raw := simsvc.RunSpec{Scheme: "PR", Pattern: "PAT271", Radix: []int{4, 4},
			Warmup: warmup, Measure: measure, MaxDrain: -1, Seed: src.next()}
		body, err := json.Marshal(raw)
		if err != nil {
			return nil, err
		}
		norm, err := raw.Normalized()
		if err != nil {
			return nil, err
		}
		out[i] = serveSpec{body: body, norm: norm, hash: norm.Hash()}
	}
	return out, nil
}

// zipfDraw returns n key indices in [0, keys) drawn Zipf(s=1.1), the
// repeated-key stream of serve_hot.
func zipfDraw(seed uint64, keys, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(int64(seed))), 1.1, 1, uint64(keys-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
