package server

import (
	"container/list"
	"context"
	"sync"

	"enframe/internal/core"
	"enframe/internal/obs"
)

// artifactCache is a bounded LRU of compiled pipeline prefixes
// (core.Artifact: the grounded, hash-consed event network) keyed by the
// content hash of (program, data spec, targets). Artifacts are immutable,
// so one entry serves any number of concurrent compilations. The LRU is the
// memo of a core.Flight: concurrent misses on the same key are coalesced —
// one caller prepares, the rest wait and share the result (and count as
// hits).
type artifactCache struct {
	mu     sync.Mutex
	flight core.Flight[string, *core.Artifact]
	max    int
	ll     *list.List               // front = most recently used
	items  map[string]*list.Element // key → element whose Value is *cacheEntry

	hits, misses, coalesced, evictions *obs.Counter
	// size counts entries; bytes is the sum of their core.Artifact.Bytes
	// (network columns plus memoized circuits). Eviction is by entry count;
	// bytes is reported, not enforced.
	size, bytes *obs.Gauge
	// batchJoined counts coalesced waits under their fleet-facing name: in a
	// sharded deployment, distinct concurrent requests routed to this shard
	// for the same artifact joined one compilation (cross-request batching).
	batchJoined *obs.Counter
}

type cacheEntry struct {
	key string
	art *core.Artifact
}

func newArtifactCache(max int, reg *obs.Registry) *artifactCache {
	if max < 1 {
		max = 1
	}
	c := &artifactCache{
		max:       max,
		ll:        list.New(),
		items:     map[string]*list.Element{},
		hits:      reg.Counter("server.cache.hits"),
		misses:    reg.Counter("server.cache.misses"),
		coalesced: reg.Counter("server.cache.coalesced"),
		evictions: reg.Counter("server.cache.evictions"),
		size:      reg.Gauge("server.cache.size"),
		bytes:     reg.Gauge("server.cache.bytes"),

		batchJoined: reg.Counter("server.batch.joined"),
	}
	c.flight = core.NewFlight[string, *core.Artifact]("prepare", &c.mu, c)
	return c
}

// getOrPrepare returns the artifact for key, preparing it with prepare() on
// a miss under core.Flight's contract, and counts the outcome: a coalesced
// wait counts as a hit, as the response body reports it.
func (c *artifactCache) getOrPrepare(ctx context.Context, key string, prepare func() (*core.Artifact, error)) (*core.Artifact, core.Outcome, error) {
	art, out, err := c.flight.Do(ctx, key, prepare)
	switch {
	case out == core.Hit:
		c.hits.Inc()
	case out == core.Miss:
		c.misses.Inc()
	case err == nil:
		c.hits.Inc()
		c.coalesced.Inc()
		c.batchJoined.Inc()
	}
	return art, out, err
}

// Get is the flight's memo lookup, under c.mu: a hit moves to the LRU front.
func (c *artifactCache) Get(key string) (*core.Artifact, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).art, true
}

// Keep inserts a prepared artifact under c.mu, evicting from the LRU tail
// past capacity.
func (c *artifactCache) Keep(key string, art *core.Artifact) {
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, art: art})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
	c.size.Set(float64(c.ll.Len()))
	c.setBytes()
}

// setBytes recomputes the bytes gauge under c.mu. It runs where an entry's
// byte count can change — an insert, an eviction, a freshly memoized circuit —
// which are all cold-path events.
func (c *artifactCache) setBytes() {
	var total int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		total += el.Value.(*cacheEntry).art.Bytes()
	}
	c.bytes.Set(float64(total))
}

// refreshBytes is setBytes for callers outside the cache: the serving layer
// calls it after tracing a circuit onto a cached artifact.
func (c *artifactCache) refreshBytes() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setBytes()
}
