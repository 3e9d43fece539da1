package server

import (
	"errors"
	"strings"
	"testing"
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
