package protocol

import (
	"fmt"

	"repro/internal/message"
)

// Pattern is a message-type distribution (a "data transaction pattern" in
// the paper's Table 3): a weighted mixture of transaction templates plus the
// class-mapping style its protocols use.
type Pattern struct {
	Name      string
	Style     Style
	Templates []*Template
	Weights   []float64
}

// Validate checks structural consistency of the pattern.
func (p *Pattern) Validate() error {
	if len(p.Templates) == 0 || len(p.Templates) != len(p.Weights) {
		return fmt.Errorf("protocol: pattern %q has mismatched templates/weights", p.Name)
	}
	var sum float64
	for i, t := range p.Templates {
		if err := t.Validate(); err != nil {
			return err
		}
		if p.Weights[i] < 0 {
			return fmt.Errorf("protocol: pattern %q has negative weight", p.Name)
		}
		sum += p.Weights[i]
	}
	if sum <= 0 {
		return fmt.Errorf("protocol: pattern %q has zero total weight", p.Name)
	}
	return nil
}

// MaxFanout returns the widest subordinate fanout any template can produce
// (1 for purely linear chains). Endpoint output queues must hold at least
// this many messages, since a memory controller only services a message
// when there is "a sufficient amount of free space for the subordinate
// message(s)" — a fanout wider than the queue could never be serviced.
func (p *Pattern) MaxFanout() int {
	max := 1
	for i, t := range p.Templates {
		if p.Weights[i] <= 0 {
			continue
		}
		if _, w := t.FanoutIndex(); w > max {
			max = w
		}
	}
	return max
}

// MaxChainLength returns the longest dependency chain the pattern can
// produce. This determines the number of virtual networks strict avoidance
// must provision.
func (p *Pattern) MaxChainLength() int {
	max := 0
	for i, t := range p.Templates {
		if p.Weights[i] > 0 && t.ChainLength() > max {
			max = t.ChainLength()
		}
	}
	return max
}

// UsedTypes returns the set of generic message types the pattern can emit
// during normal (non-recovery) operation.
func (p *Pattern) UsedTypes() []message.Type {
	var used [message.NumTypes]bool
	for i, t := range p.Templates {
		if p.Weights[i] <= 0 {
			continue
		}
		for _, s := range t.Steps {
			used[s.Type] = true
		}
	}
	var out []message.Type
	for t := message.Type(0); t < message.NumTypes; t++ {
		if used[t] {
			out = append(out, t)
		}
	}
	return out
}

// ChainLengthDistribution returns the probability of each chain length
// (index = chain length; lengths 0 and 1 are always zero).
func (p *Pattern) ChainLengthDistribution() []float64 {
	dist := make([]float64, 6)
	var sum float64
	for _, w := range p.Weights {
		sum += w
	}
	for i, t := range p.Templates {
		dist[t.ChainLength()] += p.Weights[i] / sum
	}
	return dist
}

// TypeDistribution returns the steady-state fraction of network messages of
// each generic type, the quantity tabulated in Table 3. A transaction of
// chain length L contributes L messages (fanout widths > 1 contribute their
// replicated branches).
func (p *Pattern) TypeDistribution() [message.NumTypes]float64 {
	var counts [message.NumTypes]float64
	var total float64
	var wsum float64
	for _, w := range p.Weights {
		wsum += w
	}
	for i, t := range p.Templates {
		w := p.Weights[i] / wsum
		fi, width := t.FanoutIndex()
		for j, s := range t.Steps {
			n := 1.0
			if fi >= 0 && j >= fi {
				n = float64(width)
			}
			counts[s.Type] += w * n
			total += w * n
		}
	}
	for i := range counts {
		counts[i] /= total
	}
	return counts
}

// AverageChainLength returns the expected dependency-chain length.
func (p *Pattern) AverageChainLength() float64 {
	var sum, wsum float64
	for i, t := range p.Templates {
		sum += p.Weights[i] * float64(t.ChainLength())
		wsum += p.Weights[i]
	}
	return sum / wsum
}

// The five synthetic transaction patterns of Table 3. The printed m1/m4
// percentages for PAT721 (47.7%) are a typo in the paper for 41.7% — the
// remaining rows close exactly under the template algebra implemented by
// TypeDistribution, which unit tests assert.
var (
	// PAT100: all transactions are request-reply (chain length 2), as in
	// message-passing systems or a shared-memory protocol where the home
	// owns every block.
	PAT100 = &Pattern{
		Name:      "PAT100",
		Style:     StyleS1,
		Templates: []*Template{Chain2},
		Weights:   []float64{1.0},
	}
	// PAT721: 70% chain-2, 20% chain-3, 10% chain-4 (S-1/MSI style).
	PAT721 = &Pattern{
		Name:      "PAT721",
		Style:     StyleS1,
		Templates: []*Template{Chain2, Chain3S1, Chain4S1},
		Weights:   []float64{0.7, 0.2, 0.1},
	}
	// PAT451: 40% chain-2, 50% chain-3, 10% chain-4.
	PAT451 = &Pattern{
		Name:      "PAT451",
		Style:     StyleS1,
		Templates: []*Template{Chain2, Chain3S1, Chain4S1},
		Weights:   []float64{0.4, 0.5, 0.1},
	}
	// PAT271: 20% chain-2, 70% chain-3, 10% chain-4.
	PAT271 = &Pattern{
		Name:      "PAT271",
		Style:     StyleS1,
		Templates: []*Template{Chain2, Chain3S1, Chain4S1},
		Weights:   []float64{0.2, 0.7, 0.1},
	}
	// PAT280: 20% chain-2, 80% chain-3 with the Origin2000 mapping, where
	// m2 (BRP) appears only during deflective recovery.
	PAT280 = &Pattern{
		Name:      "PAT280",
		Style:     StyleOrigin,
		Templates: []*Template{Chain2, Chain3Origin},
		Weights:   []float64{0.2, 0.8},
	}
)

// MSI is the pattern used by trace-driven simulation (Figure 5): the MSI
// directory protocol's three transaction shapes under the S-1 class mapping.
// The weights are placeholders — the coherence engine chooses the template
// per access from the directory state, not from these weights.
var MSI = &Pattern{
	Name:      "MSI",
	Style:     StyleS1,
	Templates: []*Template{Chain2, Chain3S1, Chain4S1},
	Weights:   []float64{1, 1, 1},
}

// Patterns lists the five canonical Table 3 patterns in paper order.
var Patterns = []*Pattern{PAT100, PAT721, PAT451, PAT271, PAT280}

// PatternByName returns the canonical pattern with the given name: one of
// Patterns, or MSI.
func PatternByName(name string) (*Pattern, error) {
	if name == MSI.Name {
		return MSI, nil
	}
	for _, p := range Patterns {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("protocol: unknown pattern %q", name)
}

// MarshalText writes a pattern as its name, the text form configurations
// carry (counterexample files); only canonical patterns round-trip.
func (p *Pattern) MarshalText() ([]byte, error) { return []byte(p.Name), nil }

// UnmarshalText resolves a canonical pattern name. The receiver becomes a
// copy of the canonical pattern sharing its templates, so compare decoded
// patterns by Name, not by pointer.
func (p *Pattern) UnmarshalText(name []byte) error {
	q, err := PatternByName(string(name))
	if err != nil {
		return err
	}
	*p = *q
	return nil
}
