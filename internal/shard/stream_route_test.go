package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"enframe/internal/server"
	"enframe/internal/stream"
)

func postStreamRoute(t *testing.T, url string, req server.StreamRequest) (int, server.StreamResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.StreamResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("bad response JSON: %v", err)
		}
	}
	return resp.StatusCode, out, resp.Header.Get("X-Shard")
}

func streamCfg(seed int64) *stream.Config {
	return &stream.Config{
		Program: "kmedoids", K: 2, Iter: 2,
		Segments: 3, SegmentN: 5, Group: 2, Seed: seed,
	}
}

// TestRouterPinsStreamSession drives a whole session life through the
// router over a two-shard fleet: every verb must land on the same shard
// (sessions are shard-local state), and the marginal bytes must flow
// through unchanged.
func TestRouterPinsStreamSession(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	_, rsrv := startRouter(t, []string{s1.Addr(), s2.Addr()}, RouterConfig{})

	status, created, shard0 := postStreamRoute(t, rsrv.URL, server.StreamRequest{
		Op: "create", Config: streamCfg(3),
	})
	if status != http.StatusOK {
		t.Fatalf("create via router: status %d", status)
	}
	if created.SessionID == "" || shard0 == "" {
		t.Fatalf("create: id=%q shard=%q", created.SessionID, shard0)
	}

	v := created.Windows[0].Vars[0]
	w := created.Windows[0].Window
	p := 0.4
	seq := created.Seq
	for i := 0; i < 4; i++ {
		status, pushed, shard := postStreamRoute(t, rsrv.URL, server.StreamRequest{
			Op: "push", SessionID: created.SessionID, BaseSeq: seq,
			Deltas: []stream.Delta{{Op: stream.OpProb, Window: &w, Var: v, P: &p}},
		})
		if status != http.StatusOK {
			t.Fatalf("push %d: status %d", i, status)
		}
		if shard != shard0 {
			t.Fatalf("push %d landed on %s, session lives on %s", i, shard, shard0)
		}
		seq = pushed.Seq
		p += 0.1
	}

	status, _, shard := postStreamRoute(t, rsrv.URL, server.StreamRequest{
		Op: "query", SessionID: created.SessionID,
	})
	if status != http.StatusOK || shard != shard0 {
		t.Fatalf("query: status %d shard %s (want %s)", status, shard, shard0)
	}
	status, _, shard = postStreamRoute(t, rsrv.URL, server.StreamRequest{
		Op: "close", SessionID: created.SessionID,
	})
	if status != http.StatusOK || shard != shard0 {
		t.Fatalf("close: status %d shard %s (want %s)", status, shard, shard0)
	}
}

// TestRouterStreamSpreadsSessions opens many sessions and checks the fleet
// shares them (the hash is per-session, not per-fleet-constant). Every
// session must land on its own ring owner. The router mints random ids for
// anonymous creates, and twelve random ids all hash to one of two shards
// about once in 1,600 runs, so one named session per shard, picked on the
// ring, makes the spread certain whenever routing follows the session.
func TestRouterStreamSpreadsSessions(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	shards := []string{s1.Addr(), s2.Addr()}
	_, rsrv := startRouter(t, shards, RouterConfig{})
	ring := NewRing(shards, 0)

	hits := map[string]int{}
	create := func(i int, id string) {
		status, created, shard := postStreamRoute(t, rsrv.URL, server.StreamRequest{
			Op: "create", SessionID: id, Config: streamCfg(int64(i)),
		})
		if status != http.StatusOK {
			t.Fatalf("create %d: status %d", i, status)
		}
		if owner := ring.Owners("stream:"+created.SessionID, 1)[0]; shard != owner {
			t.Fatalf("create %d: session %q landed on %s, its ring owner is %s",
				i, created.SessionID, shard, owner)
		}
		hits[shard]++
	}
	for i := 0; i < 12; i++ {
		create(i, "")
	}
	for _, s := range shards {
		for j := 0; ; j++ {
			if id := fmt.Sprintf("spread-%d", j); ring.Owners("stream:"+id, 1)[0] == s {
				create(12+j, id)
				break
			}
		}
	}
	if len(hits) < 2 {
		t.Fatalf("sessions all landed on one shard: %v", hits)
	}
}

func TestRouterStreamRequiresSessionID(t *testing.T) {
	s1 := startShard(t)
	_, rsrv := startRouter(t, []string{s1.Addr()}, RouterConfig{})
	status, _, _ := postStreamRoute(t, rsrv.URL, server.StreamRequest{Op: "push"})
	if status != http.StatusBadRequest {
		t.Fatalf("push without session_id: status %d, want 400", status)
	}
}
