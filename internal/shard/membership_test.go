package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"enframe/internal/server"
)

// postQuiet is post() for traffic goroutines: it returns an error instead of
// failing the test, so workers can report through a channel.
func postQuiet(url string, body []byte) (int, string, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Shard"), buf.Bytes(), nil
}

// artifactKey computes the same content hash the router routes by.
func artifactKey(t *testing.T, seed int64, n int) string {
	t.Helper()
	var req server.RunRequest
	if err := json.Unmarshal(runBody(t, seed, n), &req); err != nil {
		t.Fatal(err)
	}
	_, key, err := server.BuildSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestMembershipChangeMidTraffic is the fleet's correctness drill: a shard
// joins and another drains while traffic flows, and every response — before,
// during, and after — stays byte-identical to a single-node server. Moved
// keys must arrive warm on their new owners (direct cache-hit assertions),
// the ring must count moves, and the router must leak no goroutines. Run
// under -race via `make test-race`.
func TestMembershipChangeMidTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns four servers and sustained traffic")
	}
	s1, s2, s3 := startShard(t), startShard(t), startShard(t)
	single := startShard(t)
	rt, router := startRouter(t, []string{s1.Addr(), s2.Addr()}, RouterConfig{})

	const nObjects = 6
	seeds := make([]int64, 16)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}

	// Reference marginals from an untouched single-node server.
	ref := map[int64][]byte{}
	for _, seed := range seeds {
		status, _, raw := post(t, "http://"+single.Addr()+"/v1/run", runBody(t, seed, nObjects))
		if status != http.StatusOK {
			t.Fatalf("reference seed %d: status %d: %s", seed, status, raw)
		}
		ref[seed] = targetsOf(t, raw)
	}

	// Prime: route every key once so the router tracks the full keyspace
	// (membership-change warming covers tracked keys) and every artifact is
	// hot on its current owner.
	for _, seed := range seeds {
		status, _, raw := post(t, router.URL+"/v1/run", runBody(t, seed, nObjects))
		if status != http.StatusOK {
			t.Fatalf("prime seed %d: status %d: %s", seed, status, raw)
		}
		if !bytes.Equal(targetsOf(t, raw), ref[seed]) {
			t.Fatalf("prime seed %d: routed marginals diverged from single-node", seed)
		}
	}

	baseGoroutines := runtime.NumGoroutine()

	// Sustained traffic through the router across the whole membership
	// change. Workers verify every response against the reference.
	stop := make(chan struct{})
	errs := make(chan error, 256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				seed := seeds[i%len(seeds)]
				i++
				status, _, raw, err := postQuiet(router.URL+"/v1/run", runBody(t, seed, nObjects))
				if err != nil {
					select {
					case errs <- fmt.Errorf("seed %d: %v", seed, err):
					default:
					}
					return
				}
				if status != http.StatusOK {
					select {
					case errs <- fmt.Errorf("seed %d: status %d: %s", seed, status, raw):
					default:
					}
					return
				}
				if !bytes.Equal(targetsOf(t, raw), ref[seed]) {
					select {
					case errs <- fmt.Errorf("seed %d: routed marginals diverged from single-node", seed):
					default:
					}
					return
				}
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond)

	// Join s3 mid-traffic. Join blocks until warming completes, so the keys
	// it now owns must already be hot: a direct run on s3 is a cache hit.
	movedJoin, warmedJoin, err := rt.Join(s3.Addr())
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	hitsChecked := 0
	for _, seed := range seeds {
		key := artifactKey(t, seed, nObjects)
		owners := map[string]bool{}
		rtOwners := func() []string {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return rt.ring.Owners(key, rt.cfg.Replicas)
		}()
		for _, o := range rtOwners {
			owners[o] = true
		}
		if !owners[s3.Addr()] {
			continue
		}
		status, _, raw, err := postQuiet("http://"+s3.Addr()+"/v1/run", runBody(t, seed, nObjects))
		if err != nil || status != http.StatusOK {
			t.Fatalf("direct run on joined shard, seed %d: status %d err %v", seed, status, err)
		}
		var resp struct {
			Cache string `json:"cache"`
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cache != "hit" {
			t.Errorf("seed %d moved to joined shard but was not warm: cache = %q", seed, resp.Cache)
		}
		if !bytes.Equal(targetsOf(t, raw), ref[seed]) {
			t.Errorf("seed %d: joined shard marginals diverged", seed)
		}
		hitsChecked++
	}
	if hitsChecked == 0 {
		t.Error("joined shard owns none of the tracked keys; warming unexercised")
	}

	time.Sleep(100 * time.Millisecond)

	// Drain s1 mid-traffic: it leaves the ring, its keys are warmed onto
	// their new owners, and no new traffic routes to it.
	movedLeave, _, err := rt.Leave(s1.Addr())
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	if movedJoin+movedLeave == 0 {
		t.Error("join+leave moved no keys")
	}
	if got := rt.reg.Counter("shard.ring.moves").Value(); got != int64(movedJoin+movedLeave) {
		t.Errorf("shard.ring.moves = %d, want %d", got, movedJoin+movedLeave)
	}
	if warmedJoin == 0 {
		t.Error("join warmed no keys")
	}

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// After the drain, every key answers via the surviving shards, every
	// response is still byte-identical, and everything is hot somewhere.
	for _, seed := range seeds {
		status, shard, raw := post(t, router.URL+"/v1/run", runBody(t, seed, nObjects))
		if status != http.StatusOK {
			t.Fatalf("post-drain seed %d: status %d: %s", seed, status, raw)
		}
		if shard == s1.Addr() {
			t.Errorf("seed %d routed to drained shard %s", seed, shard)
		}
		if !bytes.Equal(targetsOf(t, raw), ref[seed]) {
			t.Errorf("post-drain seed %d: marginals diverged", seed)
		}
		var resp struct {
			Cache string `json:"cache"`
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cache == "miss" {
			t.Errorf("post-drain seed %d: cold on %s (cache miss) — warming failed", seed, shard)
		}
	}

	// No goroutine leaks: once traffic stops and idle connections close, we
	// settle back to (near) the pre-traffic baseline.
	http.DefaultClient.CloseIdleConnections()
	rt.client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseGoroutines+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d now vs %d baseline", runtime.NumGoroutine(), baseGoroutines)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}
