package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enframe/internal/core"
	"enframe/internal/obs"
	"enframe/internal/prob"
)

// ResolveFunc turns a load message's spec payload into the core.Spec it
// denotes plus its artifact content hash. cmd/enframe injects the server's
// request resolver here, keeping dist free of a server dependency.
type ResolveFunc func(specJSON []byte) (core.Spec, string, error)

// WorkerConfig configures one worker process (or in-process worker, as the
// tests use).
type WorkerConfig struct {
	// Resolver materialises artifacts from shipped specs. Required.
	Resolver ResolveFunc
	// Slots is the worker's parallel job capacity, advertised in the
	// handshake. Default GOMAXPROCS.
	Slots int
	// MaxSessions bounds the session cache; the oldest session is evicted
	// beyond it. Default 8.
	MaxSessions int
	// Reg, when non-nil, receives dist.worker.* metrics. Its counters are
	// also piggybacked as deltas on result frames, so the coordinator's
	// registry accumulates fleet-wide totals.
	Reg *obs.Registry
	// Now is the worker's clock (default time.Now). The handshake reports
	// its reading so the coordinator can map this worker's span timestamps
	// onto its own clock; injecting a skewed clock tests that mapping.
	Now func() time.Time
	// Fault, when non-nil, injects deterministic failures (tests only).
	Fault *FaultPlan
	// Logf, when non-nil, receives worker diagnostics.
	Logf func(format string, args ...any)
}

// Worker executes jobs shipped by coordinators. One worker serves any number
// of connections and sessions concurrently.
type Worker struct {
	cfg WorkerConfig
	ln  net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	sessions sessionMemo
	// loads is the single-flight in front of sessions: concurrent loads of
	// one session share one preparation, and a failed one is not kept.
	loads  core.Flight[string, *prob.Session]
	closed atomic.Bool

	wg sync.WaitGroup

	mJobs     *obs.Counter
	mSessions *obs.Counter
	mBytesIn  *obs.Counter
	mBytesOut *obs.Counter
}

// sessionMemo is the worker's session cache: loaded sessions by key, the
// oldest evicted beyond max.
type sessionMemo struct {
	max   int
	byKey map[string]*prob.Session
	age   []string // insertion order for eviction
}

func (m *sessionMemo) Get(key string) (*prob.Session, bool) {
	sess, ok := m.byKey[key]
	return sess, ok
}

func (m *sessionMemo) Keep(key string, sess *prob.Session) {
	m.byKey[key] = sess
	m.age = append(m.age, key)
	for len(m.age) > m.max {
		delete(m.byKey, m.age[0])
		m.age = m.age[1:]
	}
}

// NewWorker builds a worker; Listen binds it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Resolver == nil {
		return nil, errors.New("dist: worker needs a Resolver")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 8
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	w := &Worker{
		cfg:      cfg,
		conns:    map[net.Conn]struct{}{},
		sessions: sessionMemo{max: cfg.MaxSessions, byKey: map[string]*prob.Session{}},
	}
	w.loads = core.NewFlight[string, *prob.Session]("session load", &w.mu, &w.sessions)
	if cfg.Reg != nil {
		w.mJobs = cfg.Reg.Counter("dist.worker.jobs")
		w.mSessions = cfg.Reg.Counter("dist.worker.sessions")
		w.mBytesIn = cfg.Reg.Counter("dist.worker.bytes.recv")
		w.mBytesOut = cfg.Reg.Counter("dist.worker.bytes.sent")
	}
	return w, nil
}

// Listen binds the worker to addr (":0" picks an ephemeral port).
func (w *Worker) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	w.ln = ln
	return nil
}

// Addr returns the bound address (empty before Listen).
func (w *Worker) Addr() string {
	if w.ln == nil {
		return ""
	}
	return w.ln.Addr().String()
}

// Serve accepts coordinator connections until Close. It returns nil after a
// clean Close.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			if w.closed.Load() {
				return nil
			}
			return fmt.Errorf("dist: accept: %w", err)
		}
		w.mu.Lock()
		if w.closed.Load() {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.serveConn(conn)
		}()
	}
}

// Close kills the worker: the listener and every live connection drop
// immediately (in-flight jobs are abandoned), which is also how the fault
// plan's kill trigger simulates a crash.
func (w *Worker) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	var err error
	if w.ln != nil {
		err = w.ln.Close()
	}
	w.mu.Lock()
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
	return err
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// connWriter serialises frame writes from the per-job goroutines and owns
// the per-connection metric-delta state.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
	out  *obs.Counter
	// reg/lastVals drive counter-delta piggybacking on result frames: under
	// mu, each result ships (current − last shipped) per counter, so sends
	// interleaved across job goroutines never double-count.
	reg      *obs.Registry
	lastVals map[string]float64
}

func (cw *connWriter) send(t MsgType, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.out.Add(int64(headerSize + len(payload)))
	return WriteFrame(cw.conn, t, payload)
}

// sendResult sends one result frame with the worker's metric deltas
// attached. The delta snapshot happens under the write mutex so each counter
// increment is shipped exactly once.
func (cw *connWriter) sendResult(rm resultMsg) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.reg != nil {
		rm.Metrics = cw.metricDeltasLocked()
	}
	payload := encode(rm)
	cw.out.Add(int64(headerSize + len(payload)))
	return WriteFrame(cw.conn, MsgResult, payload)
}

// metricDeltasLocked snapshots the worker registry: counter deltas since the
// last result on this connection, gauges as absolutes.
func (cw *connWriter) metricDeltasLocked() []wireMetric {
	if cw.lastVals == nil {
		cw.lastVals = map[string]float64{}
	}
	var out []wireMetric
	for _, mv := range cw.reg.Values() {
		switch mv.Kind {
		case "counter":
			if d := mv.Value - cw.lastVals[mv.Name]; d != 0 {
				cw.lastVals[mv.Name] = mv.Value
				out = append(out, wireMetric{N: mv.Name, K: 0, V: d})
			}
		case "gauge":
			out = append(out, wireMetric{N: mv.Name, K: 1, V: mv.Value})
		}
	}
	return out
}

// serveConn runs one coordinator connection: handshake, then a read loop
// that answers pings inline and executes load/job requests on bounded
// goroutines.
func (w *Worker) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	cw := &connWriter{conn: conn, out: w.mBytesOut, reg: w.cfg.Reg}

	// Handshake: the coordinator speaks first and must speak
	// ProtocolVersion. On a mismatch — in the frame header or the hello —
	// MsgError is sent (best effort) before closing, so the peer fails with
	// a typed VersionError instead of a hang.
	versionErr := func() {
		_ = cw.send(MsgError, encode(errorMsg{Code: "version", Version: ProtocolVersion,
			Msg: fmt.Sprintf("worker speaks v%d", ProtocolVersion)}))
	}
	t, payload, err := ReadFrame(conn)
	if err != nil {
		var ve *VersionError
		if errors.As(err, &ve) {
			versionErr()
		}
		w.logf("handshake: %v", err)
		return
	}
	w.mBytesIn.Add(int64(headerSize + len(payload)))
	if t != MsgHello {
		w.logf("handshake: expected hello, got %v", t)
		return
	}
	var hello helloMsg
	if err := decode(payload, &hello); err != nil {
		w.logf("handshake: %v", err)
		return
	}
	if hello.Version != ProtocolVersion {
		versionErr()
		return
	}
	ack := helloAckMsg{Version: ProtocolVersion, Slots: w.cfg.Slots,
		PID: os.Getpid(), ClockNs: w.cfg.Now().UnixNano()}
	if err := cw.send(MsgHelloAck, encode(ack)); err != nil {
		return
	}

	// jobSlots bounds concurrent job execution per connection. The defers
	// run cancel before Wait, so in-flight jobs see the cancellation as
	// soon as the read loop exits.
	jobSlots := make(chan struct{}, w.cfg.Slots)
	var jobs sync.WaitGroup
	defer jobs.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	for {
		t, payload, err := ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !w.closed.Load() {
				w.logf("read: %v", err)
			}
			return
		}
		w.mBytesIn.Add(int64(headerSize + len(payload)))
		switch t {
		case MsgPing:
			if err := cw.send(MsgPong, payload); err != nil {
				return
			}
		case MsgLoad:
			var lm loadMsg
			if err := decode(payload, &lm); err != nil {
				w.logf("load: %v", err)
				return
			}
			jobs.Add(1)
			go func() {
				defer jobs.Done()
				ack := w.loadSession(ctx, lm)
				_ = cw.send(MsgLoadAck, encode(ack))
			}()
		case MsgJob:
			var jm jobMsg
			if err := decode(payload, &jm); err != nil {
				w.logf("job: %v", err)
				return
			}
			jobs.Add(1)
			go func() {
				defer jobs.Done()
				// When the coordinator is tracing, this job runs under a
				// local tracer whose subtree ships back on the result
				// frame. The root opens before the slot wait so queueing
				// shows up as its own child span (nil without a trace).
				var tr *obs.Trace
				if jm.Trace != nil {
					tr = obs.NewWithClock("job", w.cfg.Now)
					defer tr.Finish()
					root := tr.Root()
					root.SetStr("trace_id", jm.Trace.ID)
					root.SetInt("parent_span", int64(jm.Trace.Span))
					root.SetInt("wire_id", int64(jm.ID))
				}
				q := tr.Root().Start("queued")
				select {
				case jobSlots <- struct{}{}:
					q.End()
					defer func() { <-jobSlots }()
				case <-ctx.Done():
					return
				}
				w.runJob(ctx, cw, jm, tr)
			}()
		default:
			w.logf("unexpected frame %v", t)
			return
		}
	}
}

// loadSession resolves (or reuses) the session named by the load message.
// ctx is the connection's: a load whose coordinator went away is abandoned,
// and a load waiting on it takes over. A resolver or preparation that panics
// answers a permanent load error; the worker serves on.
func (w *Worker) loadSession(ctx context.Context, lm loadMsg) loadAckMsg {
	sess, _, err := w.loads.Do(ctx, lm.SessionKey, func() (*prob.Session, error) {
		spec, key, err := w.cfg.Resolver(lm.Spec)
		if err != nil {
			return nil, fmt.Errorf("resolve spec: %w", err)
		}
		if key != lm.ArtifactKey {
			return nil, fmt.Errorf("artifact key mismatch: resolved %s, coordinator sent %s", key, lm.ArtifactKey)
		}
		opts, err := lm.Opts.Options()
		if err != nil {
			return nil, err
		}
		art, err := core.PrepareContext(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		opts.Order = art.Order(opts.Heuristic)
		sess, err := prob.NewSession(art.Net, opts)
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		w.mSessions.Add(1)
		w.logf("session %s loaded (artifact %.12s, %d targets)", lm.SessionKey, lm.ArtifactKey, sess.Targets())
		return sess, nil
	})
	if err != nil {
		return loadAckMsg{SessionKey: lm.SessionKey, Err: err.Error()}
	}
	return loadAckMsg{SessionKey: lm.SessionKey, Targets: sess.Targets()}
}

// runJob executes one job and sends its result, applying the fault plan.
// tr, when non-nil, is the job's local tracer; its span subtree ships on the
// result frame.
func (w *Worker) runJob(ctx context.Context, cw *connWriter, jm jobMsg, tr *obs.Trace) {
	w.mu.Lock()
	sess := w.sessions.byKey[jm.SessionKey]
	w.mu.Unlock()
	var rm resultMsg
	exec := tr.Root().Start("exec")
	if sess == nil {
		rm = resultMsg{ID: jm.ID, Err: fmt.Sprintf("unknown session %s", jm.SessionKey)}
	} else {
		res, err := sess.ExecJob(ctx, jm.job())
		if err != nil {
			if ctx.Err() != nil {
				return // connection is going away; no one is listening
			}
			rm = resultMsg{ID: jm.ID, Err: err.Error()}
		} else {
			rm = toResultMsg(res)
			exec.SetInt("branches", res.Stats.Branches)
			exec.SetInt("items", int64(len(res.Items)))
			exec.SetInt("forks", int64(len(res.Forks)))
		}
	}
	exec.End()
	w.mJobs.Add(1)
	if tr != nil {
		tr.Finish()
		ex := tr.Root().Export()
		rm.Span = &ex
	}

	action, delay := w.cfg.Fault.next()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return
		}
	}
	switch action {
	case faultKill:
		w.logf("fault: killing worker after %d jobs", w.cfg.Fault.jobs.Load())
		if w.cfg.Fault.OnKill != nil {
			w.cfg.Fault.OnKill()
		}
		// Close from a fresh goroutine: Close waits for connection
		// handlers, and this job goroutine is one of them.
		go func() { _ = w.Close() }()
		return
	case faultDrop:
		w.logf("fault: dropping result of job %d", jm.ID)
		return
	}
	_ = cw.sendResult(rm)
}
