// Package shard is ENFrame's request-level sharding layer: a
// consistent-hash ring that assigns each compiled artifact (identified by
// its content hash, the serving layer's cache key) to one primary shard
// plus replicas, and an HTTP router that fronts a fleet of `enframe serve`
// processes, forwarding every request to the shard that holds its artifact
// hot. Distinct concurrent requests for the same artifact therefore land on
// one shard and share one compilation (the shard's artifact cache coalesces
// them), with per-request strategy/ε overlays applied at probability
// compilation — cross-request batching. Membership changes rebuild the ring
// and warm moved keys onto their new owners before traffic finds them cold.
// Everything is standard library; see SERVING.md, "Sharded fleet".
package shard

import (
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the per-shard virtual-node count: enough points
// that the largest shard's share of the key space stays within a few
// percent of the mean, cheap enough that ring rebuilds are microseconds.
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over a set of shard addresses.
// Each shard contributes vnodes virtual points; a key is owned by the
// shards owning the first distinct points at or after the key's hash,
// walking clockwise. Immutability makes membership change a swap: build a
// new ring, diff key ownership, warm the moved keys.
type Ring struct {
	vnodes int
	shards []string // sorted, deduplicated
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int32
}

// fnv1a64 is FNV-1a with a murmur-style avalanche finalizer. Bare FNV-1a
// disperses the near-identical vnode labels ("addr\x000", "addr\x001", …)
// badly — arcs end up wildly uneven (measured 7× spread at 128 vnodes) —
// because a trailing-byte change only ripples through one multiply. The
// finalizer mixes every input bit into every output bit, which is what ring
// placement actually needs.
func fnv1a64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRing builds a ring over the given shard addresses (deduplicated,
// order-insensitive) with vnodes virtual points per shard (≤ 0 uses
// DefaultVirtualNodes). An empty shard list yields an empty ring whose
// lookups return nothing.
func NewRing(shards []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(shards))
	uniq := make([]string, 0, len(shards))
	for _, s := range shards {
		if s != "" && !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, shards: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for si, addr := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{fnv1a64(fmt.Sprintf("%s\x00%d", addr, v)), int32(si)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Len returns the number of shards on the ring.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.shards)
}

// Shards returns the shard addresses, sorted.
func (r *Ring) Shards() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.shards...)
}

// Owners returns the key's preference list: up to max distinct shards in
// clockwise ring order starting at the key's position. Owners(key, 1)[0]
// is the primary; the following entries are its replicas, and — past the
// replication factor — the bounded-load spill order.
func (r *Ring) Owners(key string, max int) []string {
	if r == nil || len(r.shards) == 0 || max <= 0 {
		return nil
	}
	if max > len(r.shards) {
		max = len(r.shards)
	}
	h := fnv1a64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[int32]bool, max)
	out := make([]string, 0, max)
	for n := 0; n < len(r.points) && len(out) < max; n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, r.shards[p.shard])
		}
	}
	return out
}
