package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"enframe/internal/core"
	"enframe/internal/lang"
	"enframe/internal/network"
)

// TestBuildSpecBoundsRequestShape: requests whose shape would make the
// front end allocate without bound — before any deadline runs — are 400s
// naming the field, and the caps themselves stay legal.
func TestBuildSpecBoundsRequestShape(t *testing.T) {
	for _, tc := range []struct {
		name  string
		req   RunRequest
		field string
	}{
		{"k above n", RunRequest{Data: DataSpec{N: 4}, Params: ParamSpec{K: 5}}, "params.k"},
		{"k above cap", RunRequest{Data: DataSpec{N: 64}, Params: ParamSpec{K: maxParamK + 1}}, "params.k"},
		{"huge k", RunRequest{Params: ParamSpec{K: 1 << 50}}, "params.k"},
		{"vars 65", RunRequest{Data: DataSpec{Vars: 65}}, "data.vars"},
		{"iter 11", RunRequest{Params: ParamSpec{Iter: 11}}, "params.iter"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := BuildSpec(tc.req)
			var bre *badRequestError
			if !errors.As(err, &bre) || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %v, want a bad request naming %s", err, tc.field)
			}
		})
	}

	for _, req := range []RunRequest{
		{Data: DataSpec{N: 64, Vars: maxDataVars}, Params: ParamSpec{K: maxParamK, Iter: maxParamIter}},
		{Data: DataSpec{N: 3}, Params: ParamSpec{K: 3}},
		{Program: "mcl", Data: DataSpec{N: 1}},
	} {
		if _, _, err := BuildSpec(req); err != nil {
			t.Errorf("%+v at the caps: %v", req.Params, err)
		}
	}
}

// TestBuiltinASTSharedReadOnly prepares one builtin's shared parsed program
// from 4 goroutines at once: BuildSpec hands every request the AST the
// process parsed once, and each network must be Equal to a sequential build
// that parses the program's text afresh. `make test-race` runs it under the
// race detector, which reports any write to the shared AST.
func TestBuiltinASTSharedReadOnly(t *testing.T) {
	for _, program := range []string{"kmedoids", "kmeans", "mcl"} {
		shared := lang.Builtins[program].Parsed()
		specs := make([]core.Spec, 4)
		want := make([]*network.Net, len(specs))
		for i := range specs {
			spec, _, err := BuildSpec(RunRequest{Program: program, Data: DataSpec{N: 8, Vars: 6, Seed: int64(i + 1)}})
			if err != nil {
				t.Fatal(err)
			}
			if spec.Parsed != shared {
				t.Fatalf("%s: BuildSpec did not hand out the builtin's shared AST", program)
			}
			specs[i] = spec
			fresh := spec
			fresh.Parsed = nil
			art, err := core.PrepareContext(context.Background(), fresh)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = art.Net
		}
		got := make([]*network.Net, len(specs))
		var wg sync.WaitGroup
		for i := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				art, err := core.PrepareContext(context.Background(), specs[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = art.Net
			}()
		}
		wg.Wait()
		for i := range got {
			if got[i] == nil || !network.Equal(got[i], want[i]) {
				t.Errorf("%s seed %d: the net prepared from the shared AST differs from a fresh parse's", program, i+1)
			}
		}
	}
}
