package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"enframe/internal/obs"
	"enframe/internal/prob"
)

// ErrNoWorkers is returned when every worker in a pool is dead. It wraps
// prob.ErrExecutorUnavailable so the serving layer's and the CLI's fallback
// policies classify it as a transport-level failure.
var ErrNoWorkers = fmt.Errorf("dist: no live workers: %w", prob.ErrExecutorUnavailable)

// PoolConfig configures a coordinator-side worker pool.
type PoolConfig struct {
	// Addrs lists worker TCP addresses. At least one must connect.
	Addrs []string
	// DialTimeout bounds the initial dial+handshake. Default 5s.
	DialTimeout time.Duration
	// HeartbeatEvery is the ping cadence per worker. Default 1s.
	HeartbeatEvery time.Duration
	// HeartbeatMiss is how many consecutive unanswered pings mark a worker
	// dead. Default 3.
	HeartbeatMiss int
	// JobTimeout bounds one shipped job end to end; on expiry the job is
	// retried (possibly on another worker). Zero disables. A dropped
	// result frame is recovered by this deadline.
	JobTimeout time.Duration
	// MaxRetries is the per-job cap on transport-level retries. Default 3.
	MaxRetries int
	// RetryBackoff is the base backoff between retries (doubled each
	// attempt). Default 50ms.
	RetryBackoff time.Duration
	// Reg, when non-nil, receives dist.* coordinator metrics.
	Reg *obs.Registry
	// Logf, when non-nil, receives pool diagnostics.
	Logf func(format string, args ...any)
}

// Pool holds live connections to a set of workers and hands out
// prob.JobExecutor sessions over them. Job shipping is fault tolerant:
// worker death fails in-flight waiters with a retryable error, and the
// executor reassigns the job to a surviving worker. Because workers execute
// jobs deterministically against session-local state, re-execution after a
// partial failure merges idempotently on the coordinator.
type Pool struct {
	cfg     PoolConfig
	workers []*poolWorker
	closed  atomic.Bool

	mShipped    *obs.Counter
	mRetries    *obs.Counter
	mReassigned *obs.Counter
	mOrphaned   *obs.Counter
	mBytesSent  *obs.Counter
	mBytesRecv  *obs.Counter
}

// poolWorker is one live worker connection plus its demultiplexing state.
type poolWorker struct {
	pool  *Pool
	index int
	addr  string
	conn  net.Conn
	slots int

	// remotePID is the worker's OS process ID (0 when the ack omits it).
	remotePID int
	// clockOffNs estimates (worker clock − coordinator clock) from the
	// handshake: the worker's ack reading minus the midpoint of our
	// send/receive instants. Spliced worker spans shift by −clockOffNs to
	// land on the coordinator clock, so Perfetto lanes align.
	clockOffNs int64

	alive    atomic.Bool
	inflight atomic.Int64
	misses   atomic.Int64
	nextID   atomic.Uint64 // per-connection wire job IDs
	pingN    atomic.Uint64

	mu      sync.Mutex // guards writes, waiters
	waiters map[uint64]chan poolReply

	gAlive    *obs.Gauge
	gInflight *obs.Gauge
	mJobs     *obs.Counter

	done chan struct{} // closed when the reader exits
}

type poolReply struct {
	msg *resultMsg
	err error
}

// NewPool dials every address and performs the protocol handshake. It fails
// only if no worker connects; partial pools degrade gracefully. A version
// mismatch anywhere fails the whole pool with a typed *VersionError — a
// worker on another protocol revision is a deployment error worth surfacing
// loudly.
func NewPool(ctx context.Context, cfg PoolConfig) (*Pool, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("dist: pool needs at least one worker address")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.HeartbeatMiss <= 0 {
		cfg.HeartbeatMiss = 3
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	p := &Pool{cfg: cfg}
	if cfg.Reg != nil {
		p.mShipped = cfg.Reg.Counter("dist.jobs.shipped")
		p.mRetries = cfg.Reg.Counter("dist.jobs.retries")
		p.mReassigned = cfg.Reg.Counter("dist.jobs.reassigned")
		p.mOrphaned = cfg.Reg.Counter("dist.results.orphaned")
		p.mBytesSent = cfg.Reg.Counter("dist.bytes.sent")
		p.mBytesRecv = cfg.Reg.Counter("dist.bytes.recv")
	}

	var dialErrs []error
	for i, addr := range cfg.Addrs {
		w, err := p.dial(ctx, i, addr)
		if err != nil {
			var ve *VersionError
			if errors.As(err, &ve) {
				p.Close()
				return nil, err
			}
			dialErrs = append(dialErrs, err)
			p.logf("worker %s: %v", addr, err)
			continue
		}
		p.workers = append(p.workers, w)
	}
	if len(p.workers) == 0 {
		return nil, fmt.Errorf("dist: no workers reachable: %w: %w",
			prob.ErrExecutorUnavailable, errors.Join(dialErrs...))
	}
	for _, w := range p.workers {
		go w.readLoop()
		go w.heartbeat()
	}
	return p, nil
}

func (p *Pool) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// dial connects and handshakes with one worker.
func (p *Pool) dial(ctx context.Context, index int, addr string) (*poolWorker, error) {
	dctx, cancel := context.WithTimeout(ctx, p.cfg.DialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	deadline := time.Now().Add(p.cfg.DialTimeout)
	conn.SetDeadline(deadline)
	t0 := time.Now()
	hello := helloMsg{Version: ProtocolVersion, Name: "coordinator", ClockNs: t0.UnixNano()}
	if err := WriteFrame(conn, MsgHello, encode(hello)); err != nil {
		conn.Close()
		return nil, err
	}
	t, payload, err := ReadFrame(conn)
	t1 := time.Now()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if t == MsgError {
		var em errorMsg
		_ = json.Unmarshal(payload, &em)
		conn.Close()
		if em.Code == "version" {
			return nil, &VersionError{Got: uint8(em.Version), Want: ProtocolVersion}
		}
		return nil, fmt.Errorf("dist: worker %s rejected handshake: %s", addr, em.Msg)
	}
	if t != MsgHelloAck {
		conn.Close()
		return nil, &FrameError{Op: "handshake", Err: fmt.Errorf("unexpected %v frame", t)}
	}
	var ack helloAckMsg
	if err := decode(payload, &ack); err != nil {
		conn.Close()
		return nil, err
	}
	if ack.Version != ProtocolVersion {
		conn.Close()
		return nil, &VersionError{Got: uint8(ack.Version), Want: ProtocolVersion}
	}
	conn.SetDeadline(time.Time{})
	w := &poolWorker{
		pool: p, index: index, addr: addr, conn: conn, slots: ack.Slots,
		remotePID: ack.PID,
		waiters:   map[uint64]chan poolReply{},
		done:      make(chan struct{}),
	}
	if ack.ClockNs != 0 {
		// Estimate the worker clock against the midpoint of the handshake
		// round trip; the residual error is bounded by half the RTT.
		mid := t0.UnixNano() + (t1.UnixNano()-t0.UnixNano())/2
		w.clockOffNs = ack.ClockNs - mid
	}
	if ack.Slots <= 0 {
		w.slots = 1
	}
	w.alive.Store(true)
	if p.cfg.Reg != nil {
		w.gAlive = p.cfg.Reg.Gauge(fmt.Sprintf("dist.worker.%d.alive", index))
		w.gInflight = p.cfg.Reg.Gauge(fmt.Sprintf("dist.worker.%d.inflight", index))
		w.mJobs = p.cfg.Reg.Counter(fmt.Sprintf("dist.worker.%d.jobs_shipped", index))
	}
	w.gAlive.Set(1)
	w.gInflight.Set(0)
	p.logf("worker %d (%s) connected, %d slots, clock offset %dns",
		index, addr, w.slots, w.clockOffNs)
	return w, nil
}

// lanePID is the Chrome-trace process lane this worker's spliced spans land
// on: lane 1 is the coordinator, workers take 2, 3, … by pool index, so
// lanes stay distinct even when coordinator and workers share an OS pid
// (in-process tests).
func (w *poolWorker) lanePID() int { return w.index + 2 }

// laneLabel names the worker's Perfetto lane.
func (w *poolWorker) laneLabel() string {
	if w.remotePID > 0 {
		return fmt.Sprintf("worker %d (%s, pid %d)", w.index, w.addr, w.remotePID)
	}
	return fmt.Sprintf("worker %d (%s)", w.index, w.addr)
}

// AliveWorkers counts workers currently considered live.
func (p *Pool) AliveWorkers() int {
	n := 0
	for _, w := range p.workers {
		if w.alive.Load() {
			n++
		}
	}
	return n
}

// Close tears down every connection.
func (p *Pool) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, w := range p.workers {
		w.markDead(errClosedPool)
	}
	return nil
}

// send writes one frame on the worker connection (serialised).
func (w *poolWorker) send(t MsgType, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pool.mBytesSent.Add(int64(headerSize + len(payload)))
	if err := WriteFrame(w.conn, t, payload); err != nil {
		return fmt.Errorf("dist: worker %s: %w: %w", w.addr, prob.ErrExecutorUnavailable, err)
	}
	return nil
}

// readLoop demultiplexes incoming frames to waiters until the connection
// breaks, then marks the worker dead (failing all waiters retryably).
func (w *poolWorker) readLoop() {
	defer close(w.done)
	for {
		t, payload, err := ReadFrame(w.conn)
		if err != nil {
			w.markDead(err)
			return
		}
		w.pool.mBytesRecv.Add(int64(headerSize + len(payload)))
		switch t {
		case MsgPong:
			w.misses.Store(0)
		case MsgResult:
			var rm resultMsg
			if err := decode(payload, &rm); err != nil {
				w.markDead(err)
				return
			}
			w.applyRemoteMetrics(rm.Metrics)
			w.deliver(rm.ID, poolReply{msg: &rm})
		case MsgError:
			var em errorMsg
			_ = json.Unmarshal(payload, &em)
			w.markDead(fmt.Errorf("dist: worker %s error: %s (%s)", w.addr, em.Msg, em.Code))
			return
		default:
			w.markDead(&FrameError{Op: "demux", Err: fmt.Errorf("unexpected %v frame", t)})
			return
		}
	}
}

// applyRemoteMetrics folds piggybacked worker telemetry into the pool
// registry. Counter deltas sum fleet-wide under `worker.<name>`; gauge
// absolutes land per worker under `dist.worker.<i>.<name>`. Applied even for
// results that turn out orphaned — the work (and its cost) really happened.
func (w *poolWorker) applyRemoteMetrics(ms []wireMetric) {
	reg := w.pool.cfg.Reg
	if reg == nil || len(ms) == 0 {
		return
	}
	for _, m := range ms {
		switch m.K {
		case 0: // counter delta
			reg.Counter("worker." + m.N).Add(int64(m.V))
		case 1: // gauge absolute
			reg.Gauge(fmt.Sprintf("dist.worker.%d.%s", w.index, m.N)).Set(m.V)
		}
	}
}

// deliver routes one result to its waiter; results for jobs nobody waits on
// (late arrivals after a timeout-driven reassignment) are counted and
// dropped — the coordinator merge is duplicate tolerant by construction, but
// dropping here keeps even the transport exactly-once.
func (w *poolWorker) deliver(id uint64, r poolReply) {
	w.mu.Lock()
	ch, ok := w.waiters[id]
	delete(w.waiters, id)
	w.mu.Unlock()
	if !ok {
		w.pool.mOrphaned.Add(1)
		w.pool.logf("worker %s: orphaned result for wire job %d", w.addr, id)
		return
	}
	ch <- r // buffered
}

// heartbeat pings on a fixed cadence and kills the worker after too many
// consecutive unanswered pings.
func (w *poolWorker) heartbeat() {
	ticker := time.NewTicker(w.pool.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-ticker.C:
			if !w.alive.Load() {
				return
			}
			if w.misses.Add(1) > int64(w.pool.cfg.HeartbeatMiss) {
				w.markDead(fmt.Errorf("dist: worker %s missed %d heartbeats", w.addr, w.pool.cfg.HeartbeatMiss))
				return
			}
			n := w.pingN.Add(1)
			if err := w.send(MsgPing, encode(pingMsg{Nonce: n})); err != nil {
				w.markDead(err)
				return
			}
		}
	}
}

// markDead transitions the worker to dead exactly once: the connection
// closes and every waiter fails with a retryable transport error.
func (w *poolWorker) markDead(cause error) {
	if !w.alive.CompareAndSwap(true, false) {
		return
	}
	// Zero both liveness gauges so /metrics never reports a dead worker as
	// alive or still owning in-flight jobs.
	w.gAlive.Set(0)
	w.gInflight.Set(0)
	if !errors.Is(cause, errClosedPool) {
		w.pool.logf("worker %d (%s) dead: %v", w.index, w.addr, cause)
	}
	w.conn.Close()
	err := fmt.Errorf("dist: worker %s died: %w: %w", w.addr, prob.ErrExecutorUnavailable, cause)
	w.mu.Lock()
	waiters := w.waiters
	w.waiters = map[uint64]chan poolReply{}
	w.mu.Unlock()
	for _, ch := range waiters {
		ch <- poolReply{err: err}
	}
}

var errClosedPool = errors.New("pool closed")

// Session binds a compilation session across the pool and returns the
// executor that ships its jobs. specJSON must resolve (via each worker's
// ResolveFunc) to the artifact named by artifactKey. The pool keeps no record
// of which worker holds the session: a worker that does not (it never loaded
// it, or evicted it since) says so, and the job goes again with the load.
func (p *Pool) Session(artifactKey string, specJSON []byte, wo WireOpts) *PoolExecutor {
	return &PoolExecutor{
		pool:       p,
		sessionKey: SessionKey(artifactKey, wo),
		load:       loadMsg{ArtifactKey: artifactKey, Spec: specJSON, Opts: wo},
	}
}

// PoolExecutor is prob.JobExecutor over a worker pool for one session.
type PoolExecutor struct {
	pool       *Pool
	sessionKey string
	load       loadMsg
}

// Slots sums the capacity of live workers.
func (e *PoolExecutor) Slots() int {
	n := 0
	for _, w := range e.pool.workers {
		if w.alive.Load() {
			n += w.slots
		}
	}
	return n
}

// pick selects the live worker with the most free capacity, excluding the
// previous attempt's worker when alternatives exist (reassignment).
func (e *PoolExecutor) pick(exclude *poolWorker) *poolWorker {
	var best *poolWorker
	var bestFree int64
	for _, w := range e.pool.workers {
		if !w.alive.Load() || w == exclude {
			continue
		}
		free := int64(w.slots) - w.inflight.Load()
		if best == nil || free > bestFree {
			best, bestFree = w, free
		}
	}
	if best == nil && exclude != nil && exclude.alive.Load() {
		return exclude // sole survivor: retry in place
	}
	return best
}

// ExecuteJob ships one job, retrying with backoff and reassignment across
// workers on transport failures. Execution errors reported by a worker are
// permanent; only transport-level failures (death, timeout, dropped result)
// retry. Re-execution is safe: jobs are deterministic and the coordinator
// merge consumes exactly one result per job.
func (e *PoolExecutor) ExecuteJob(ctx context.Context, j *prob.WireJob) (*prob.WireResult, error) {
	var last *poolWorker
	var lastErr error
	for attempt := 0; attempt <= e.pool.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			e.pool.mRetries.Add(1)
			backoff := e.pool.cfg.RetryBackoff << (attempt - 1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		w := e.pick(last)
		if w == nil {
			return nil, ErrNoWorkers
		}
		if last != nil && w != last {
			e.pool.mReassigned.Add(1)
			e.pool.logf("job %d reassigned %s -> %s", j.ID, last.addr, w.addr)
		}
		res, err := e.runOn(ctx, w, j)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !errors.Is(err, prob.ErrExecutorUnavailable) {
			return nil, err // permanent: the job itself failed
		}
		last, lastErr = w, err
	}
	return nil, fmt.Errorf("dist: job %d failed after %d attempts: %w", j.ID, e.pool.cfg.MaxRetries+1, lastErr)
}

// runOn executes one attempt on one worker. The job goes out naming its
// session; a worker that does not hold the session answers NoSession, and
// the job goes once more with the session's load attached.
func (e *PoolExecutor) runOn(ctx context.Context, w *poolWorker, j *prob.WireJob) (*prob.WireResult, error) {
	jm := jobMsg{SessionKey: e.sessionKey, WireJob: *j}
	rm, err := e.ship(ctx, w, jm)
	if err == nil && rm.NoSession {
		jm.Load = &e.load
		rm, err = e.ship(ctx, w, jm)
	}
	if err != nil {
		return nil, err
	}
	if !rm.OK {
		return nil, fmt.Errorf("dist: worker %s: job failed: %s", w.addr, rm.Err)
	}
	res := &rm.WireResult
	res.ID = j.ID
	return res, nil
}

// ship sends one job frame and waits for its answer.
func (e *PoolExecutor) ship(ctx context.Context, w *poolWorker, jm jobMsg) (*resultMsg, error) {
	wireID := w.nextID.Add(1)
	ch := make(chan poolReply, 1)
	w.mu.Lock()
	if !w.alive.Load() {
		w.mu.Unlock()
		return nil, fmt.Errorf("dist: worker %s died: %w", w.addr, prob.ErrExecutorUnavailable)
	}
	w.waiters[wireID] = ch
	w.mu.Unlock()
	w.inflight.Add(1)
	w.gInflight.Set(float64(w.inflight.Load()))
	defer func() {
		w.inflight.Add(-1)
		w.gInflight.Set(float64(w.inflight.Load()))
	}()

	// When the caller is tracing, open a local "ship" span covering the
	// frame's wire round trip and propagate its trace context on the job
	// frame; the worker ships its span subtree back on the result, which
	// splices under this span on the worker's lane.
	var ship *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		ship = parent.Start("ship")
		ship.SetInt("job", int64(jm.ID))
		ship.SetInt("wire_id", int64(wireID))
		ship.SetInt("worker", int64(w.index))
		ship.SetStr("addr", w.addr)
		jm.Trace = &wireTrace{ID: ship.TraceID(), Span: ship.SpanID()}
		defer ship.End()
	}
	// Wire IDs are per-connection; the worker echoes ours back, and runOn
	// restores the coordinator's job ID on the result.
	jm.ID = wireID
	if err := w.send(MsgJob, encode(jm)); err != nil {
		w.forget(wireID)
		return nil, err
	}
	e.pool.mShipped.Add(1)
	w.mJobs.Add(1)

	var timeoutCh <-chan time.Time
	if e.pool.cfg.JobTimeout > 0 {
		timer := time.NewTimer(e.pool.cfg.JobTimeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, r.err
		}
		if ship != nil && r.msg.Span != nil {
			// Map worker timestamps onto the coordinator clock and land the
			// subtree on this worker's dedicated process lane.
			ship.Splice(*r.msg.Span, -w.clockOffNs, w.lanePID(), w.laneLabel())
		}
		return r.msg, nil
	case <-timeoutCh:
		w.forget(wireID)
		return nil, fmt.Errorf("dist: worker %s: job deadline exceeded: %w", w.addr, prob.ErrExecutorUnavailable)
	case <-ctx.Done():
		w.forget(wireID)
		return nil, ctx.Err()
	}
}

// forget abandons a waiter; a result arriving later is counted as orphaned.
func (w *poolWorker) forget(id uint64) {
	w.mu.Lock()
	delete(w.waiters, id)
	w.mu.Unlock()
}
