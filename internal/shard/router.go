package shard

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"enframe/internal/obs"
	"enframe/internal/server"
)

// DefaultReplicas is the replication factor: how many shards of a key's
// preference list are considered its owners (primary + failover targets) and
// warmed on membership change.
const DefaultReplicas = 2

// DefaultLoadFactor is the bounded-load cap multiplier: a shard whose
// in-flight count exceeds LoadFactor × mean is skipped in favour of the next
// shard on the key's preference list, so a single hot key cannot melt its
// primary while the rest of the fleet idles.
const DefaultLoadFactor = 1.25

// RouterConfig sizes a Router. Zero values take the documented defaults.
type RouterConfig struct {
	// Shards lists the initial fleet: base URLs ("http://host:port") or bare
	// host:port addresses of enframe serve processes.
	Shards []string
	// Replicas is the replication factor (default DefaultReplicas, clamped
	// to the fleet size).
	Replicas int
	// VirtualNodes is the per-shard ring point count (default
	// DefaultVirtualNodes).
	VirtualNodes int
	// LoadFactor is the bounded-load cap multiplier (default
	// DefaultLoadFactor; values ≤ 1 disable the bound).
	LoadFactor float64
	// MaxBodyBytes bounds a routed request body. Default 1 MiB.
	MaxBodyBytes int64
	// Registry receives the router metrics; a fresh one is created when nil.
	Registry *obs.Registry
	// Client issues the forwarded requests; defaults to a keep-alive client
	// with no overall timeout (the shard owns the request deadline).
	Client *http.Client
}

// Router fronts a fleet of enframe serve shards: it computes each request's
// artifact content hash (the shard cache key) with the same key step the
// shards use, routes the request to the key's primary shard on a
// consistent-hash ring — so all traffic for one artifact lands where it is
// hot and concurrent requests batch into one compilation — fails over to
// replicas when the primary is unreachable, spills under bounded load, and
// on membership change rebuilds the ring and warms moved keys onto their new
// owners before traffic finds them cold.
type Router struct {
	cfg    RouterConfig
	reg    *obs.Registry
	client *http.Client

	mu       sync.Mutex
	ring     *Ring
	inflight map[string]int // shard → forwarded requests in flight
	total    int
	// keys remembers the artifacts shards answered 200 for, no more than the
	// fleet can cache (ring.Len() × server.DefaultCacheEntries), the most
	// recently answered at the front of lru, whose Values are *trackedKey.
	keys map[string]*list.Element
	lru  *list.List

	mRequests   *obs.Counter
	mForwards   *obs.Counter
	mFailovers  *obs.Counter
	mSpills     *obs.Counter
	mNoShard    *obs.Counter
	mBadRequest *obs.Counter
	mStreams    *obs.Counter
	mMoves      *obs.Counter
	mWarmSent   *obs.Counter
	mWarmErrors *obs.Counter
	gRingSize   *obs.Gauge
	gKeys       *obs.Gauge
}

// NewRouter builds a router over the configured fleet.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.LoadFactor == 0 {
		cfg.LoadFactor = DefaultLoadFactor
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	rt := &Router{
		cfg:      cfg,
		reg:      cfg.Registry,
		client:   cfg.Client,
		ring:     NewRing(cfg.Shards, cfg.VirtualNodes),
		inflight: map[string]int{},
		keys:     map[string]*list.Element{},
		lru:      list.New(),

		mRequests:   cfg.Registry.Counter("shard.route.requests"),
		mForwards:   cfg.Registry.Counter("shard.route.forwards"),
		mFailovers:  cfg.Registry.Counter("shard.route.failovers"),
		mSpills:     cfg.Registry.Counter("shard.route.spills"),
		mNoShard:    cfg.Registry.Counter("shard.route.no_shard"),
		mBadRequest: cfg.Registry.Counter("shard.route.bad_request"),
		mStreams:    cfg.Registry.Counter("shard.route.streams"),
		mMoves:      cfg.Registry.Counter("shard.ring.moves"),
		mWarmSent:   cfg.Registry.Counter("shard.warm.sent"),
		mWarmErrors: cfg.Registry.Counter("shard.warm.errors"),
		gRingSize:   cfg.Registry.Gauge("shard.ring.size"),
		gKeys:       cfg.Registry.Gauge("shard.keys.tracked"),
	}
	rt.gRingSize.Set(float64(rt.ring.Len()))
	return rt
}

// Shards returns the current fleet, sorted.
func (rt *Router) Shards() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring.Shards()
}

// Handler returns the router's route mux: the routed data plane (/v1/run,
// /v1/whatif, /v1/warm), the local control plane (/healthz, /metrics), and
// membership administration (/admin/join, /admin/leave, /admin/shards).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", rt.handleRoute)
	mux.HandleFunc("/v1/whatif", rt.handleRoute)
	mux.HandleFunc("/v1/warm", rt.handleRoute)
	mux.HandleFunc("/v1/stream", rt.handleStreamRoute)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteMetricsHTTP(rt.reg, w, r)
	})
	mux.HandleFunc("/admin/shards", rt.handleShards)
	mux.HandleFunc("/admin/join", rt.handleMembership(true))
	mux.HandleFunc("/admin/leave", rt.handleMembership(false))
	return mux
}

func writeRouteError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// routeKey derives the artifact content hash for a request body, per route.
// The router runs the same validation and key step as the shards
// (server.ArtifactKey, BuildSpec's first half), so neither can drift between
// the two layers; it generates no data, so a request whose generated data
// is invalid is refused by the shard.
func routeKey(path string, body []byte) (key string, artJSON []byte, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var rreq server.RunRequest
	if path == "/v1/whatif" {
		var wreq server.WhatifRequest
		if err := dec.Decode(&wreq); err != nil {
			return "", nil, err
		}
		rreq = wreq.RunRequest()
	} else {
		if err := dec.Decode(&rreq); err != nil {
			return "", nil, err
		}
	}
	key, err = server.ArtifactKey(rreq)
	if err != nil {
		return "", nil, err
	}
	artJSON, err = json.Marshal(server.ArtifactRequest(rreq))
	if err != nil {
		return "", nil, err
	}
	return key, artJSON, nil
}

// pick chooses the target shard for a key under bounded load: walk the
// preference list, take the first shard whose in-flight count is under the
// cap (LoadFactor × mean, computed over the whole fleet including the
// request being placed). If every owner is over the cap the primary takes
// the request anyway — the bound sheds hot spots, it does not reject.
// The returned release func MUST be called once the forward completes.
func (rt *Router) pick(key string) (addr string, owners []string, spilled bool, release func()) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	owners = rt.ring.Owners(key, rt.ring.Len())
	if len(owners) == 0 {
		return "", nil, false, func() {}
	}
	addr = owners[0]
	if rt.cfg.LoadFactor > 1 && rt.ring.Len() > 1 {
		loadCap := rt.cfg.LoadFactor * float64(rt.total+1) / float64(rt.ring.Len())
		for i, o := range owners {
			if float64(rt.inflight[o]) < loadCap {
				addr, spilled = o, i > 0
				break
			}
		}
	}
	rt.inflight[addr]++
	rt.total++
	picked := addr
	var once sync.Once
	release = func() {
		once.Do(func() {
			rt.mu.Lock()
			rt.inflight[picked]--
			rt.total--
			rt.mu.Unlock()
		})
	}
	return addr, owners, spilled, release
}

// shardURL normalises a shard address into a base URL.
func shardURL(addr string) string {
	if len(addr) >= 7 && (addr[:7] == "http://" || (len(addr) >= 8 && addr[:8] == "https://")) {
		return addr
	}
	return "http://" + addr
}

// handleRoute is the routed data plane: decode enough of the body to compute
// the artifact key, pick the owning shard, proxy the request verbatim, and
// fail over along the preference list when a shard is unreachable.
func (rt *Router) handleRoute(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeRouteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		rt.mBadRequest.Inc()
		writeRouteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	key, artJSON, err := routeKey(r.URL.Path, body)
	if err != nil {
		rt.mBadRequest.Inc()
		writeRouteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	addr, owners, spilled, release := rt.pick(key)
	if addr == "" {
		rt.mNoShard.Inc()
		writeRouteError(w, http.StatusServiceUnavailable, "no shards on the ring")
		return
	}
	if spilled {
		rt.mSpills.Inc()
	}

	// Try the picked shard, then fail over along the rest of the preference
	// list. Only transport-level failures (shard down, connection refused)
	// fail over — an HTTP response, whatever its status, is the answer.
	tried := 0
	for _, candidate := range orderedFrom(owners, addr) {
		tried++
		resp, ferr := rt.forward(r, candidate, body)
		if ferr != nil {
			rt.mFailovers.Inc()
			continue
		}
		rt.mForwards.Inc()
		if resp.StatusCode == http.StatusOK {
			rt.track(key, artJSON, candidate)
		}
		release()
		copyResponse(w, resp, candidate)
		return
	}
	release()
	writeRouteError(w, http.StatusBadGateway, "all %d owner shards unreachable for key %s", tried, key[:16])
}

// handleStreamRoute pins /v1/stream traffic to one shard per session:
// streaming sessions are stateful and shard-local, so the router hashes
// "stream:<session_id>" onto the ring and always forwards to the key's
// primary owner — no bounded-load spill and no failover (another shard
// would answer 404, or worse, silently fork the session). An anonymous
// "create" gets its session id minted here, so the routing key exists
// before the session does and every later verb hashes to the same shard.
func (rt *Router) handleStreamRoute(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeRouteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		rt.mBadRequest.Inc()
		writeRouteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var sreq server.StreamRequest
	if err := dec.Decode(&sreq); err != nil {
		rt.mBadRequest.Inc()
		writeRouteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if sreq.SessionID == "" {
		if sreq.Op != "create" {
			rt.mBadRequest.Inc()
			writeRouteError(w, http.StatusBadRequest, "op %q needs a session_id", sreq.Op)
			return
		}
		sreq.SessionID = server.NewStreamSessionID()
		if body, err = json.Marshal(sreq); err != nil {
			writeRouteError(w, http.StatusInternalServerError, "re-encode request: %v", err)
			return
		}
	}
	key := "stream:" + sreq.SessionID

	rt.mu.Lock()
	owners := rt.ring.Owners(key, 1)
	var addr string
	if len(owners) > 0 {
		addr = owners[0]
		rt.inflight[addr]++
		rt.total++
	}
	rt.mu.Unlock()
	if addr == "" {
		rt.mNoShard.Inc()
		writeRouteError(w, http.StatusServiceUnavailable, "no shards on the ring")
		return
	}
	defer func() {
		rt.mu.Lock()
		rt.inflight[addr]--
		rt.total--
		rt.mu.Unlock()
	}()

	resp, ferr := rt.forward(r, addr, body)
	if ferr != nil {
		// The session lives only on its owner; an unreachable owner is an
		// outage for this session, not a failover opportunity.
		writeRouteError(w, http.StatusBadGateway, "session shard %s unreachable: %v", addr, ferr)
		return
	}
	rt.mForwards.Inc()
	rt.mStreams.Inc()
	copyResponse(w, resp, addr)
}

// orderedFrom returns owners starting at addr, preserving preference order
// for the rest.
func orderedFrom(owners []string, addr string) []string {
	out := make([]string, 0, len(owners))
	out = append(out, addr)
	for _, o := range owners {
		if o != addr {
			out = append(out, o)
		}
	}
	return out
}

// forward proxies the request body to one shard, propagating the caller's
// context (deadline, disconnect) and identity headers.
func (rt *Router) forward(r *http.Request, addr string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		shardURL(addr)+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for _, h := range []string{"X-Tenant-Id", "X-Request-Id"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return rt.client.Do(req)
}

// copyResponse relays a shard's response to the client, tagging which shard
// answered so byte-identity checks can name the server.
func copyResponse(w http.ResponseWriter, resp *http.Response, addr string) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Shard", addr)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleShards is GET /admin/shards: the current fleet.
func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	shards := rt.ring.Shards()
	inflight := make(map[string]int, len(shards))
	for _, s := range shards {
		inflight[s] = rt.inflight[s]
	}
	keys := rt.lru.Len()
	rt.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"shards": shards, "inflight": inflight, "keys_tracked": keys,
	})
}

type membershipRequest struct {
	Addr string `json:"addr"`
}

// handleMembership is POST /admin/join and /admin/leave.
func (rt *Router) handleMembership(join bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeRouteError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		var req membershipRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil || req.Addr == "" {
			writeRouteError(w, http.StatusBadRequest, "body must be {\"addr\": \"host:port\"}")
			return
		}
		var moved, warmed int
		var err error
		if join {
			moved, warmed, err = rt.Join(req.Addr)
		} else {
			moved, warmed, err = rt.Leave(req.Addr)
		}
		if err != nil {
			writeRouteError(w, http.StatusConflict, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"shards": rt.Shards(), "moved": moved, "warmed": warmed,
		})
	}
}

// Join adds a shard to the ring and warms the keys it now owns. It returns
// the number of keys whose primary moved and the number of warm requests
// that succeeded, and blocks until warming completes — when Join returns,
// moved keys are hot on their new owners.
func (rt *Router) Join(addr string) (moved, warmed int, err error) {
	rt.mu.Lock()
	cur := rt.ring.Shards()
	for _, s := range cur {
		if s == addr {
			rt.mu.Unlock()
			return 0, 0, fmt.Errorf("shard %s already on the ring", addr)
		}
	}
	rt.mu.Unlock()
	return rt.rebuild(append(cur, addr))
}

// Leave drains a shard: it is removed from the ring (so no new traffic
// routes there) and every key it owned is warmed onto its new owners. The
// shard process itself is not contacted or stopped — the operator drains
// via the ring, then retires the process.
func (rt *Router) Leave(addr string) (moved, warmed int, err error) {
	rt.mu.Lock()
	cur := rt.ring.Shards()
	rt.mu.Unlock()
	next := make([]string, 0, len(cur))
	for _, s := range cur {
		if s != addr {
			next = append(next, s)
		}
	}
	if len(next) == len(cur) {
		return 0, 0, fmt.Errorf("shard %s not on the ring", addr)
	}
	if len(next) == 0 {
		return 0, 0, fmt.Errorf("cannot remove the last shard")
	}
	return rt.rebuild(next)
}

// trackedKey is a key shards answered 200 for: its artifact-identifying
// request JSON, replayed against /v1/warm when the ring reassigns the key,
// and the shards that answered. Only those hold it warm — an owner that never
// served the key is cold — so rebuild warms against hot, not the owner list.
type trackedKey struct {
	key string
	art []byte
	hot map[string]bool
}

// track records that addr answered 200 for key — a routed request or a
// warm — with its artifact request, for warming on membership change. Keys
// whose requests failed are not tracked: a request with invalid data passes
// the router's key step but would fail every warm.
func (rt *Router) track(key string, artJSON []byte, addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	el, ok := rt.keys[key]
	if !ok {
		el = rt.lru.PushFront(&trackedKey{key: key, art: artJSON, hot: map[string]bool{}})
		rt.keys[key] = el
		rt.trimLocked()
	}
	rt.lru.MoveToFront(el)
	el.Value.(*trackedKey).hot[addr] = true
}

// trimLocked forgets the least recently answered keys, with their
// residency, beyond what the fleet can cache. Call it under rt.mu.
func (rt *Router) trimLocked() {
	for max := rt.ring.Len() * server.DefaultCacheEntries; rt.lru.Len() > max; {
		delete(rt.keys, rt.lru.Remove(rt.lru.Back()).(*trackedKey).key)
	}
	rt.gKeys.Set(float64(rt.lru.Len()))
}

// rebuild swaps in a new ring and migrates cache residency: every tracked
// key is warmed, in parallel, on each new owner not already known hot —
// before rebuild returns. Ownership on the *old* ring is not trusted as
// residency: a replica only counts as warm once it actually answered a
// request or a warm. Keys whose primary changed count as ring moves.
func (rt *Router) rebuild(shards []string) (moved, warmed int, err error) {
	type warmTarget struct {
		key  string
		addr string
		body []byte
	}
	var warms []warmTarget

	rt.mu.Lock()
	old := rt.ring
	next := NewRing(shards, rt.cfg.VirtualNodes)
	rt.ring = next
	rt.gRingSize.Set(float64(next.Len()))
	fleet := make(map[string]bool, next.Len())
	for _, s := range next.Shards() {
		fleet[s] = true
	}
	rt.trimLocked()
	replicas := rt.cfg.Replicas
	for el := rt.lru.Front(); el != nil; el = el.Next() {
		tk := el.Value.(*trackedKey)
		// A shard off the ring may be retired at any moment; forget its
		// residency so a future rejoin re-warms instead of trusting stale
		// state.
		for addr := range tk.hot {
			if !fleet[addr] {
				delete(tk.hot, addr)
			}
		}
		oldOwners := old.Owners(tk.key, replicas)
		newOwners := next.Owners(tk.key, replicas)
		if len(newOwners) > 0 && (len(oldOwners) == 0 || oldOwners[0] != newOwners[0]) {
			moved++
		}
		for _, o := range newOwners {
			if !tk.hot[o] {
				warms = append(warms, warmTarget{key: tk.key, addr: o, body: tk.art})
			}
		}
	}
	rt.mu.Unlock()
	rt.mMoves.Add(int64(moved))

	// Warm in parallel with bounded fan-out; block until the fleet is hot.
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	var okCount int64
	var okMu sync.Mutex
	for _, wt := range warms {
		wg.Add(1)
		sem <- struct{}{}
		go func(wt warmTarget) {
			defer wg.Done()
			defer func() { <-sem }()
			if rt.warmOne(wt.addr, wt.body) {
				rt.track(wt.key, wt.body, wt.addr)
				okMu.Lock()
				okCount++
				okMu.Unlock()
			}
		}(wt)
	}
	wg.Wait()
	return moved, int(okCount), nil
}

// warmOne posts one artifact-identifying request to a shard's /v1/warm.
func (rt *Router) warmOne(addr string, body []byte) bool {
	req, err := http.NewRequest(http.MethodPost, shardURL(addr)+"/v1/warm", bytes.NewReader(body))
	if err != nil {
		rt.mWarmErrors.Inc()
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.mWarmErrors.Inc()
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		rt.mWarmErrors.Inc()
		return false
	}
	rt.mWarmSent.Inc()
	return true
}
