package circuit_test

import (
	"context"
	"testing"

	"enframe/internal/circuit"
	"enframe/internal/core"
	"enframe/internal/event"
	"enframe/internal/prob"
	"enframe/internal/server"
)

// BenchmarkEvalWalkers times the circuit's two walkers on one probability
// assignment: the scalar replay (Eval, behind prob.EvalCircuit) and a
// one-lane EvalSweep, the walk a single-walker design would run for every
// point. The circuits are traced from the served k-medoids network at two
// shapes: a stream-push-mixed segment (n 12, independent lineage in groups
// of 2, k 2, iter 2) and a serve-run-mixed request (n 16, positive lineage
// over 8 variables, k 2, iter 2). DESIGN.md "Circuit backend" records why
// both walkers stay.
func BenchmarkEvalWalkers(b *testing.B) {
	for _, shape := range []struct {
		name string
		req  server.RunRequest
	}{
		{"stream", server.RunRequest{Program: "kmedoids",
			Data:   server.DataSpec{N: 12, Scheme: "independent", Group: 2, Seed: 1},
			Params: server.ParamSpec{K: 2, Iter: 2}}},
		{"serve", server.RunRequest{Program: "kmedoids",
			Data:   server.DataSpec{N: 16, Scheme: "positive", Vars: 8, L: 8, M: 12, Group: 4, Seed: 1},
			Params: server.ParamSpec{K: 2, Iter: 2}, Targets: []string{"Centre["}}},
	} {
		c, probs := traceCircuit(b, shape.req)
		nt := len(c.Targets())
		lo, hi := make([]float64, nt), make([]float64, nt)
		b.Run(shape.name+"/eval", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.Eval(probs, lo, hi); err != nil {
					b.Fatal(err)
				}
			}
		})
		grid := []float64{probs[0]}
		scratch := make([]float64, c.SweepScratch(1))
		b.Run(shape.name+"/sweep-1-lane", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.EvalSweep(probs, 0, grid, lo, hi, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// traceCircuit builds the request's network and traces its exact circuit;
// probs is the data's probability assignment.
func traceCircuit(b *testing.B, req server.RunRequest) (*circuit.Circuit, []float64) {
	b.Helper()
	spec, _, err := server.BuildSpec(req)
	if err != nil {
		b.Fatal(err)
	}
	art, err := core.PrepareContext(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	c, _, _, err := art.Circuit(context.Background(), prob.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if !c.Complete() {
		b.Fatal("traced circuit is incomplete")
	}
	sp := art.Net.Space
	probs := make([]float64, sp.Len())
	for i := range probs {
		probs[i] = sp.Prob(event.VarID(i))
	}
	return c, probs
}
