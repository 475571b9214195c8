// Package cluster shards the simulation service horizontally: a
// coordinator consistent-hashes canonical RunSpec hashes (already the
// perfect routing and cache key — results are content-addressed and
// byte-deterministic) across N simserve backends, with health-probe-driven
// circuit breakers, capped-backoff retries that re-route around open or
// draining backends, and hedged requests against the ring successor for tail
// latency. A spec no replica will take is answered 429 or 503 with
// Retry-After, as one full shard answers it: the coordinator queues nothing
// of its own.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fnv1a"
)

// ringVNodes is the virtual-node count per backend. 64 points per backend
// keeps the expected load imbalance across a handful of shards in the few-
// percent range while the ring stays small enough to rebuild on any
// membership change.
const ringVNodes = 64

// Ring is an immutable consistent-hash ring over backend indices. Keys and
// backends are hashed onto a 64-bit circle; a key is owned by the first
// backend point at or clockwise of the key's hash, and its replicas are the
// subsequent distinct backends in ring order. Immutability keeps lookups
// lock-free; membership changes build a new Ring.
type Ring struct {
	points   []ringPoint // sorted by hash
	backends int
}

type ringPoint struct {
	hash    uint64
	backend int
}

// ParseURLList splits a comma-separated list of base URLs, as simring
// -backends takes it: surrounding spaces and trailing slashes are stripped,
// and an empty entry (a stray comma) is an error — it would otherwise become
// a backend with no host that every request routed to it fails against.
func ParseURLList(list string) ([]string, error) {
	urls := strings.Split(list, ",")
	for i := range urls {
		urls[i] = strings.TrimRight(strings.TrimSpace(urls[i]), "/")
		if urls[i] == "" {
			return nil, fmt.Errorf("empty entry in URL list %q", list)
		}
	}
	return urls, nil
}

// NewRing hashes each backend name onto the circle ringVNodes times.
// Names, not indices, are hashed, so adding a backend moves only the keys
// it takes over — the consistent-hashing property that keeps remote caches
// warm across membership changes.
func NewRing(names []string) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one backend")
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{points: make([]ringPoint, 0, len(names)*ringVNodes), backends: len(names)}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("cluster: backend %d has an empty name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", name)
		}
		seen[name] = true
		for v := 0; v < ringVNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    fnv1a.String(fnv1a.Offset, fmt.Sprintf("%s#%d", name, v)),
				backend: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].backend < r.points[b].backend
	})
	return r, nil
}

// Backends is the member count.
func (r *Ring) Backends() int { return r.backends }

// Owner returns the backend index owning key.
func (r *Ring) Owner(key string) int {
	return r.points[r.search(fnv1a.String(fnv1a.Offset, key))].backend
}

// Successors returns up to n distinct backends for key in ring order: the
// owner first, then the replicas a request fails over (or hedges) to. The
// order is a pure function of the key and the membership list, so every
// coordinator walks the same chain.
func (r *Ring) Successors(key string, n int) []int {
	if n > r.backends {
		n = r.backends
	}
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	idx := r.search(fnv1a.String(fnv1a.Offset, key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		b := r.points[(idx+i)%len(r.points)].backend
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// search finds the first point at or clockwise of h.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
