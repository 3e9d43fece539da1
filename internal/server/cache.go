package server

import (
	"container/list"
	"context"
	"sync"

	"enframe/internal/core"
	"enframe/internal/obs"
)

// artifactCache is a bounded LRU of compiled pipeline prefixes
// (core.Artifact: translated event program + grounded, hash-consed event
// network) keyed by the content hash of (program, data spec, targets).
// Artifacts are immutable, so one entry serves any number of concurrent
// compilations. Concurrent misses on the same key are coalesced: one caller
// prepares, the rest wait and share the result (and count as hits).
type artifactCache struct {
	mu       sync.Mutex
	max      int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key → element whose Value is *cacheEntry
	inflight map[string]*prepareCall

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

// prepareCall tracks one in-flight preparation that later same-key arrivals
// wait on.
type prepareCall struct {
	done chan struct{}
	art  *core.Artifact
	err  error
}

func newArtifactCache(max int, reg *obs.Registry) *artifactCache {
	if max < 1 {
		max = 1
	}
	return &artifactCache{
		max:       max,
		ll:        list.New(),
		items:     map[string]*list.Element{},
		inflight:  map[string]*prepareCall{},
		hits:      reg.Counter("server.cache.hits"),
		misses:    reg.Counter("server.cache.misses"),
		coalesced: reg.Counter("server.cache.coalesced"),
		evictions: reg.Counter("server.cache.evictions"),
		size:      reg.Gauge("server.cache.size"),
		bytes:     reg.Gauge("server.cache.bytes"),

		batchJoined: reg.Counter("server.batch.joined"),
	}
}

// cacheOutcome is how one request resolved its artifact: a fresh
// preparation, an LRU hit, or a wait coalesced onto another caller's
// in-flight preparation. The response body reports coalesced waits as plain
// hits (the artifact was reused); the access log keeps the distinction.
type cacheOutcome uint8

const (
	cacheMiss cacheOutcome = iota
	cacheHit
	cacheCoalesced
)

func (o cacheOutcome) String() string {
	switch o {
	case cacheHit:
		return "hit"
	case cacheCoalesced:
		return "coalesced"
	}
	return "miss"
}

// reused reports whether the artifact was served without paying for
// preparation — the "hit" notion of the response body.
func (o cacheOutcome) reused() bool { return o != cacheMiss }

// getOrPrepare returns the artifact for key, preparing it with prepare() on
// a miss. Failed preparations are not cached; every waiter receives the same
// error — a *core.PanicError when the leader panicked. A waiter whose own ctx
// ends first returns ctx's error; the leader is unaffected.
func (c *artifactCache) getOrPrepare(ctx context.Context, key string, prepare func() (*core.Artifact, error)) (art *core.Artifact, outcome cacheOutcome, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Inc()
		return el.Value.(*cacheEntry).art, cacheHit, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-call.done:
		case <-ctx.Done():
			return nil, cacheMiss, ctx.Err()
		}
		if call.err != nil {
			return nil, cacheMiss, call.err
		}
		c.hits.Inc()
		c.coalesced.Inc()
		c.batchJoined.Inc()
		return call.art, cacheCoalesced, nil
	}
	call := &prepareCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()
	c.misses.Inc()

	defer func() {
		if r := recover(); r != nil {
			call.art, call.err = nil, core.NewPanicError("prepare", r)
			art, err = nil, call.err
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if call.err == nil {
			c.add(key, call.art)
		}
		c.mu.Unlock()
		close(call.done)
	}()
	call.art, call.err = prepare()
	return call.art, cacheMiss, call.err
}

// add inserts under c.mu, evicting from the LRU tail past capacity.
func (c *artifactCache) add(key string, art *core.Artifact) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).art = art
		return
	}
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

// len returns the number of cached artifacts.
func (c *artifactCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
