package shard

import (
	"fmt"
	"testing"
)

func keysN(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("artifact-key-%04d", i)
	}
	return out
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil, 0)
	if empty.Len() != 0 {
		t.Fatalf("empty ring Len = %d", empty.Len())
	}
	if o := empty.Owners("k", 3); o != nil {
		t.Fatalf("empty ring Owners = %v", o)
	}

	one := NewRing([]string{"a:1"}, 0)
	for _, k := range keysN(10) {
		if o := one.Owners(k, 1)[0]; o != "a:1" {
			t.Fatalf("single-shard ring Owners(%q, 1) = %q", k, o)
		}
	}
}

func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	a := NewRing([]string{"s1:1", "s2:1", "s3:1"}, 64)
	b := NewRing([]string{"s3:1", "s1:1", "s2:1"}, 64)
	for _, k := range keysN(200) {
		ao, bo := a.Owners(k, 3), b.Owners(k, 3)
		if len(ao) != 3 || len(bo) != 3 {
			t.Fatalf("Owners(%q) lengths %d/%d, want 3", k, len(ao), len(bo))
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("shard order changed preference list for %q: %v vs %v", k, ao, bo)
			}
		}
	}
}

func TestRingOwnersDistinct(t *testing.T) {
	r := NewRing([]string{"s1:1", "s2:1", "s3:1", "s4:1"}, 32)
	for _, k := range keysN(100) {
		owners := r.Owners(k, 4)
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%q) repeats %q: %v", k, o, owners)
			}
			seen[o] = true
		}
	}
	// Asking for more owners than shards clamps.
	if got := r.Owners("k", 99); len(got) != 4 {
		t.Fatalf("Owners clamp: got %d, want 4", len(got))
	}
}

func TestRingBalance(t *testing.T) {
	shards := []string{"s1:1", "s2:1", "s3:1", "s4:1"}
	r := NewRing(shards, DefaultVirtualNodes)
	counts := map[string]int{}
	const n = 4000
	for _, k := range keysN(n) {
		counts[r.Owners(k, 1)[0]]++
	}
	mean := float64(n) / float64(len(shards))
	for _, s := range shards {
		got := float64(counts[s])
		if got < 0.5*mean || got > 1.5*mean {
			t.Errorf("shard %s owns %v keys, want within 50%% of mean %.0f (counts %v)",
				s, got, mean, counts)
		}
	}
}

// TestRingStability is the consistent-hashing property: adding one shard to
// a fleet of four moves roughly 1/5 of the keys — not half, as a modulo
// scheme would.
func TestRingStability(t *testing.T) {
	before := NewRing([]string{"s1:1", "s2:1", "s3:1", "s4:1"}, DefaultVirtualNodes)
	after := NewRing([]string{"s1:1", "s2:1", "s3:1", "s4:1", "s5:1"}, DefaultVirtualNodes)
	const n = 4000
	moved := 0
	for _, k := range keysN(n) {
		if before.Owners(k, 1)[0] != after.Owners(k, 1)[0] {
			moved++
		}
	}
	frac := float64(moved) / float64(n)
	// Expect ~1/5; fail on anything past 1/3 (a modulo scheme moves ~4/5).
	if frac > 1.0/3.0 {
		t.Errorf("join moved %.1f%% of keys, want ≈20%%", 100*frac)
	}
	if moved == 0 {
		t.Error("join moved no keys; the new shard owns nothing")
	}
}

func TestRingDeduplicates(t *testing.T) {
	r := NewRing([]string{"a:1", "a:1", "b:1", ""}, 8)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (dedup + drop empty)", r.Len())
	}
}
