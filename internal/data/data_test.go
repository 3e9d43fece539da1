package data

import (
	"testing"
)

func TestGenerateShape(t *testing.T) {
	rs := Generate(Config{N: 500, Seed: 1})
	if len(rs) != 500 {
		t.Fatalf("generated %d readings", len(rs))
	}
	regimes := map[string]int{}
	for i, r := range rs {
		if r.Hour != i {
			t.Fatalf("reading %d has hour %d", i, r.Hour)
		}
		if r.Load < 0 || r.PD < 0 {
			t.Fatalf("negative reading %+v", r)
		}
		regimes[r.Regime]++
		if p := r.Point(); len(p) != 2 || p[0] != r.Load || p[1] != r.PD {
			t.Fatalf("Point() mismatch: %v vs %+v", p, r)
		}
	}
	if len(regimes) != len(DefaultRegimes) {
		t.Errorf("only %d regimes appear in 500 readings: %v", len(regimes), regimes)
	}
	// Weights order the regime frequencies roughly.
	if regimes["healthy/low-load"] < regimes["fault-under-stress"] {
		t.Errorf("regime weights not respected: %v", regimes)
	}
}

func TestGenerateReproducible(t *testing.T) {
	a := Points(50, 7)
	b := Points(50, 7)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed produced different data")
		}
	}
	c := Points(50, 8)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestRegimesSeparate(t *testing.T) {
	// Faulty regimes must have clearly higher discharge counts than
	// healthy ones — otherwise the clustering examples are meaningless.
	rs := Generate(Config{N: 2000, Seed: 2})
	var healthyPD, faultPD, nh, nf float64
	for _, r := range rs {
		switch r.Regime {
		case "healthy/low-load", "healthy/peak-load":
			healthyPD += r.PD
			nh++
		default:
			faultPD += r.PD
			nf++
		}
	}
	if healthyPD/nh >= faultPD/nf {
		t.Errorf("healthy mean PD %.1f not below faulty mean PD %.1f", healthyPD/nh, faultPD/nf)
	}
}
