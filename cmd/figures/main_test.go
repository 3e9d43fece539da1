package main

import (
	"context"
	"testing"

	"enframe/internal/core"
	"enframe/internal/lineage"
	"enframe/internal/network"
	"enframe/internal/server"
)

// TestSpecIsTheServedNetwork: a figures point prepares the same network as
// the equivalent /v1/run request, so a row's nodes= is the network.nodes
// that request reports.
func TestSpecIsTheServedNetwork(t *testing.T) {
	for _, tc := range []struct {
		cfg  lineage.Config
		data server.DataSpec
	}{
		{lineage.Config{Scheme: lineage.Positive, NumVars: 10, L: 8, Seed: *seedFlag},
			server.DataSpec{N: 12, Scheme: "positive", Vars: 10, L: 8, Seed: *seedFlag}},
		{lineage.Config{Scheme: lineage.Mutex, M: 12, Seed: *seedFlag},
			server.DataSpec{N: 12, Scheme: "mutex", M: 12, Seed: *seedFlag}},
	} {
		fig, err := core.PrepareContext(context.Background(), spec(tc.data.N, tc.cfg))
		if err != nil {
			t.Fatal(err)
		}
		req, _, err := server.BuildSpec(server.RunRequest{
			Program: "kmedoids", Data: tc.data,
			Params: server.ParamSpec{K: kClusters, Iter: iterations},
		})
		if err != nil {
			t.Fatal(err)
		}
		served, err := core.PrepareContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !network.Equal(fig.Net, served.Net) {
			t.Errorf("%v: figures net (%d nodes) differs from the served net (%d nodes)",
				tc.cfg.Scheme, fig.Net.NumNodes(), served.Net.NumNodes())
		}
	}
}
