package server

import (
	"context"
	"encoding/json"
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

// handleWarm is POST /v1/warm: resolve the request's artifact into the
// compiled-artifact cache without compiling probabilities. The shard router
// uses it to migrate cache residency on membership change — when the ring
// reassigns a key, the new owner is warmed before traffic finds it cold.
// The body is a RunRequest; only the artifact-identifying fields matter
// (strategy/ε/deadlines are ignored). Warming takes a worker slot (the
// front end is real CPU work) but bypasses tenant quotas: it is fleet
// maintenance, not tenant traffic.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		s.mRejDraining.Inc()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	select {
	case s.queueSlots <- struct{}{}:
		defer func() { <-s.queueSlots }()
	default:
		s.mRejQueue.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue full (%d executing + %d waiting)",
			s.cfg.MaxInflight, s.cfg.QueueDepth)
		return
	}

	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.mBadRequest.Inc()
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	spec, key, err := BuildSpec(ArtifactRequest(req))
	if err != nil {
		s.mBadRequest.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info := infoFrom(r.Context())
	info.artifact = key

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	select {
	case s.workSlots <- struct{}{}:
		defer func() { <-s.workSlots }()
	case <-ctx.Done():
		s.finishCtxErr(w, r, ctx)
		return
	}

	art, cache, err := s.artifactFor(ctx, spec, key)
	info.cache = cache.String()
	if err != nil {
		if s.answerPanic(w, info, err) {
			return
		}
		if ctx.Err() != nil {
			s.finishCtxErr(w, r, ctx)
			return
		}
		s.mErrors.Inc()
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.mWarm.Inc()
	writeJSON(w, http.StatusOK, WarmResponse{
		Key:          key,
		Cache:        cache.String(),
		Variables:    art.Net.Space.Len(),
		NetworkNodes: art.Net.NumNodes(),
	})
}
