package prob_test

import (
	"encoding/json"
	"strings"
	"testing"

	"enframe/internal/prob"
)

// TestNamesRoundTrip: every strategy and heuristic reads back from its
// text, through UnmarshalText and through JSON; an empty text reads as the
// zero value; the removed circuit strategy and unknown names fail, listing
// the valid set.
func TestNamesRoundTrip(t *testing.T) {
	for _, want := range []prob.Strategy{prob.Exact, prob.Eager, prob.Lazy, prob.Hybrid} {
		text, err := want.MarshalText()
		if err != nil || string(text) != want.String() {
			t.Fatalf("%v.MarshalText() = %q, %v", want, text, err)
		}
		got := prob.Hybrid + 1
		if err := got.UnmarshalText(text); err != nil || got != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, got, err, want)
		}
	}
	for _, want := range []prob.OrderHeuristic{prob.FanoutOrder, prob.InputOrder} {
		text, err := want.MarshalText()
		if err != nil || string(text) != want.String() {
			t.Fatalf("%v.MarshalText() = %q, %v", want, text, err)
		}
		got := prob.InputOrder + 1
		if err := got.UnmarshalText(text); err != nil || got != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, got, err, want)
		}
	}

	s, h := prob.Hybrid, prob.InputOrder
	if err := s.UnmarshalText(nil); err != nil || s != prob.Exact {
		t.Errorf(`strategy "" reads as %v, %v; want exact`, s, err)
	}
	if err := h.UnmarshalText([]byte{}); err != nil || h != prob.FanoutOrder {
		t.Errorf(`heuristic "" reads as %v, %v; want fanout`, h, err)
	}

	for _, bad := range []string{"circuit", "banana", "Exact"} {
		s := prob.Lazy
		err := s.UnmarshalText([]byte(bad))
		if err == nil || !strings.Contains(err.Error(), `unknown strategy "`+bad+`" (want exact, eager, lazy, or hybrid)`) {
			t.Errorf("strategy %q: %v", bad, err)
		}
		if s != prob.Lazy {
			t.Errorf("strategy %q: a failed read changed the value to %v", bad, s)
		}
	}
	if err := h.UnmarshalText([]byte("random")); err == nil ||
		!strings.Contains(err.Error(), `unknown order heuristic "random" (want fanout or input)`) {
		t.Errorf("heuristic random: %v", err)
	}

	if _, err := (prob.Hybrid + 1).MarshalText(); err == nil {
		t.Error("an out-of-range strategy marshalled")
	}
	var opts prob.Options
	if err := json.Unmarshal([]byte(`{"strategy":"circuit"}`), &opts); err == nil {
		t.Error(`JSON "strategy":"circuit" decoded`)
	}
}

// TestMarshalTextAllocs: the names are preallocated.
func TestMarshalTextAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		_, _ = prob.Hybrid.MarshalText()
		_, _ = prob.InputOrder.MarshalText()
	}); n != 0 {
		t.Errorf("MarshalText allocates %v times", n)
	}
}
