package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"time"

	"enframe/internal/stream"
)

// StreamRequest is the body of POST /v1/stream — one protocol verb against
// a long-lived streaming session. Ops:
//
//   - "create": open a session from Config; returns the session id, its
//     initial marginals, and the addressable window/variable/tuple state.
//   - "push":   apply Deltas atop BaseSeq; BaseSeq must equal the session's
//     current sequence or the push is rejected with 409 (duplicate or
//     out-of-order delivery).
//   - "query":  read the current marginals without pushing.
//   - "close":  tear the session down.
type StreamRequest struct {
	Op        string         `json:"op"`
	SessionID string         `json:"session_id,omitempty"`
	Config    *stream.Config `json:"config,omitempty"`
	BaseSeq   uint64         `json:"base_seq,omitempty"`
	Deltas    []stream.Delta `json:"deltas,omitempty"`
	TimeoutMs int            `json:"timeout_ms,omitempty"`
	Tenant    string         `json:"tenant,omitempty"`
}

// StreamWindow describes one live window of a session: what a client may
// address with deltas.
type StreamWindow struct {
	Window int64    `json:"window"`
	Vars   []string `json:"vars"`
	Tuples []int    `json:"tuples"`
}

// StreamResponse is the body of a successful POST /v1/stream.
type StreamResponse struct {
	SessionID string            `json:"session_id"`
	Seq       uint64            `json:"seq"`
	Marginals []stream.Marginal `json:"marginals,omitempty"`
	Stats     *stream.Stats     `json:"stats,omitempty"`
	Windows   []StreamWindow    `json:"windows,omitempty"`
	Closed    bool              `json:"closed,omitempty"`
}

// streamSeqConflict is the 409 body of a rejected push; Seq tells the
// client where to resume.
type streamSeqConflict struct {
	Error string `json:"error"`
	Seq   uint64 `json:"seq"`
}

// streamEntry is one registered session.
type streamEntry struct {
	s        *stream.Session
	lastUsed time.Time
}

// streamRegistry holds the server's live sessions: a flat map with a hard
// cap and idle-based eviction (a session untouched for longer than the idle
// timeout is reclaimed when space is needed).
type streamRegistry struct {
	mu       sync.Mutex
	sessions map[string]*streamEntry
	cap      int
	idle     time.Duration
}

func newStreamRegistry(capacity int, idle time.Duration) *streamRegistry {
	return &streamRegistry{
		sessions: map[string]*streamEntry{},
		cap:      capacity,
		idle:     idle,
	}
}

// add registers a session, evicting idle ones if the registry is full.
// It reports how many sessions were evicted and whether the add succeeded.
func (r *streamRegistry) add(id string, e *streamEntry) (evicted int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.sessions[id]; exists {
		return 0, false
	}
	if len(r.sessions) >= r.cap {
		cutoff := time.Now().Add(-r.idle)
		for sid, se := range r.sessions {
			if se.lastUsed.Before(cutoff) {
				delete(r.sessions, sid)
				evicted++
			}
		}
	}
	if len(r.sessions) >= r.cap {
		return evicted, false
	}
	r.sessions[id] = e
	return evicted, true
}

// get returns a session and bumps its idle clock.
func (r *streamRegistry) get(id string) (*streamEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.sessions[id]
	if ok {
		e.lastUsed = time.Now()
	}
	return e, ok
}

func (r *streamRegistry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.sessions[id]
	delete(r.sessions, id)
	return ok
}

func (r *streamRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

func (r *streamRegistry) clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessions = map[string]*streamEntry{}
}

// NewStreamSessionID mints a random 16-hex-digit session id. The shard
// router calls it too: it assigns ids to anonymous "create" requests so it
// has a routing key for the whole session life.
func NewStreamSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: session id entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// streamRoute is POST /v1/stream's validation: the op must name a protocol
// verb. Its execute step runs the verb against the session registry.
// Sessions are shard-local state; the shard router pins every request
// carrying one session id to the same shard.
func (s *Server) streamRoute(req StreamRequest) (*ticket, error) {
	var verb func(context.Context, StreamRequest) (*StreamResponse, error)
	switch req.Op {
	case "create":
		verb = s.streamCreate
	case "push":
		verb = s.streamPush
	case "query":
		verb = s.streamQuery
	case "close":
		verb = s.streamClose
	default:
		return nil, badRequest("unknown op %q (want create, push, query, or close)", req.Op)
	}
	return &ticket{key: "stream:" + req.SessionID, tenant: req.Tenant, timeoutMs: req.TimeoutMs,
		execute: func(ctx context.Context, _ *reqInfo) (func(http.ResponseWriter), error) {
			resp, err := verb(ctx, req)
			if err != nil {
				return nil, err
			}
			return func(w http.ResponseWriter) { writeStream(w, resp) }, nil
		},
	}, nil
}

// noSession is the 404 refusal of a verb naming an unknown session.
func noSession(id string) error {
	return &statusError{http.StatusNotFound, nil, fmt.Sprintf("no session %q", id)}
}

func (s *Server) streamCreate(ctx context.Context, req StreamRequest) (*StreamResponse, error) {
	cfg := stream.Config{}
	if req.Config != nil {
		cfg = *req.Config
	}
	sess, err := stream.NewSession(ctx, cfg)
	if err != nil {
		// A session that cannot be built is a bad config; fail answers an
		// expired context before it looks at the error.
		return nil, badRequest("%v", err)
	}
	id := req.SessionID
	if id == "" {
		id = NewStreamSessionID()
	}
	evicted, ok := s.streams.add(id, &streamEntry{s: sess, lastUsed: time.Now()})
	if evicted > 0 {
		s.mStreamEvicted.Add(int64(evicted))
	}
	if !ok {
		if _, exists := s.streams.get(id); exists {
			return nil, &statusError{http.StatusConflict, s.mBadRequest, fmt.Sprintf("session %q already exists", id)}
		}
		return nil, &statusError{http.StatusTooManyRequests, s.mRejQueue,
			fmt.Sprintf("session registry full (%d sessions)", s.cfg.MaxStreamSessions)}
	}
	s.mStreamCreated.Inc()
	s.gStreamActive.Set(float64(s.streams.len()))
	u, err := sess.Query(ctx)
	if err != nil {
		return nil, err
	}
	return &StreamResponse{
		SessionID: id,
		Seq:       u.Seq,
		Marginals: u.Marginals,
		Stats:     &u.Stats,
		Windows:   streamWindows(sess),
	}, nil
}

// streamPush applies one batch; stream.push_ms records accepted pushes only.
func (s *Server) streamPush(ctx context.Context, req StreamRequest) (*StreamResponse, error) {
	t0 := time.Now()
	e, ok := s.streams.get(req.SessionID)
	if !ok {
		return nil, noSession(req.SessionID)
	}
	u, err := e.s.Apply(ctx, req.BaseSeq, req.Deltas)
	if err != nil {
		return nil, err
	}
	s.mStreamPushes.Inc()
	s.mStreamDeltas.Add(int64(u.Stats.Applied))
	s.mStreamReplays.Add(int64(u.Stats.Replayed))
	s.mStreamRetraces.Add(int64(u.Stats.Retraced))
	s.mStreamRegrounds.Add(int64(u.Stats.Reground))
	if u.Stats.Full {
		s.mStreamFull.Inc()
	}
	s.hStreamPush.Observe(ms(time.Since(t0)))
	return &StreamResponse{
		SessionID: req.SessionID,
		Seq:       u.Seq,
		Marginals: u.Marginals,
		Stats:     &u.Stats,
	}, nil
}

func (s *Server) streamQuery(ctx context.Context, req StreamRequest) (*StreamResponse, error) {
	e, ok := s.streams.get(req.SessionID)
	if !ok {
		return nil, noSession(req.SessionID)
	}
	u, err := e.s.Query(ctx)
	if err != nil {
		return nil, err
	}
	return &StreamResponse{
		SessionID: req.SessionID,
		Seq:       u.Seq,
		Marginals: u.Marginals,
		Stats:     &u.Stats,
		Windows:   streamWindows(e.s),
	}, nil
}

func (s *Server) streamClose(_ context.Context, req StreamRequest) (*StreamResponse, error) {
	if !s.streams.remove(req.SessionID) {
		return nil, noSession(req.SessionID)
	}
	s.mStreamClosed.Inc()
	s.gStreamActive.Set(float64(s.streams.len()))
	return &StreamResponse{SessionID: req.SessionID, Closed: true}, nil
}

func streamWindows(sess *stream.Session) []StreamWindow {
	var out []StreamWindow
	for _, w := range sess.Windows() {
		vars, _ := sess.VarNames(w)
		ids, _ := sess.TupleIDs(w)
		out = append(out, StreamWindow{Window: w, Vars: vars, Tuples: ids})
	}
	return out
}
