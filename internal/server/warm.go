package server

import (
	"context"
	"net/http"
)

// WarmResponse is the body of a successful POST /v1/warm.
type WarmResponse struct {
	// Key is the artifact content hash the request resolved to.
	Key string `json:"key"`
	// Cache is the artifact cache disposition: "hit" when the artifact was
	// already resident, "miss" when this warm paid for preparation,
	// "coalesced" when it joined another in-flight preparation.
	Cache        string `json:"cache"`
	Variables    int    `json:"variables"`
	NetworkNodes int    `json:"network_nodes"`
}

// warmRoute is POST /v1/warm: resolve the request's artifact into the
// compiled-artifact cache without compiling probabilities. The shard router
// uses it to migrate cache residency on membership change — when the ring
// reassigns a key, the new owner is warmed before traffic finds it cold.
// The body is a RunRequest; only the artifact-identifying fields matter
// (strategy/ε/deadlines are ignored, so warming runs under the default
// deadline). Warming takes a worker slot (the front end is real CPU work)
// but bypasses tenant accounting and quotas: it is fleet maintenance, not
// tenant traffic.
func (s *Server) warmRoute(req RunRequest) (*ticket, error) {
	spec, key, err := BuildSpec(ArtifactRequest(req))
	if err != nil {
		return nil, err
	}
	return &ticket{key: key, fleet: true,
		execute: func(ctx context.Context, info *reqInfo) (func(http.ResponseWriter), error) {
			art, cache, err := s.artifactFor(ctx, spec, key)
			info.cache = cache.String()
			if err != nil {
				return nil, err
			}
			s.mWarm.Inc()
			return jsonReply(WarmResponse{
				Key:          key,
				Cache:        cache.String(),
				Variables:    art.Net.Space.Len(),
				NetworkNodes: art.Net.NumNodes(),
			}), nil
		},
	}, nil
}
