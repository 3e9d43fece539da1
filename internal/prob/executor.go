package prob

import (
	"context"
	"errors"
	"time"

	"enframe/internal/event"
)

// ErrExecutorUnavailable marks transport-level executor failures: the worker
// process died, the connection broke, or no executor has free capacity left.
// Executors retry it on another worker (the serving layer and the CLI fall
// back to a local compile when it escapes); execution errors (a job that
// genuinely failed) are not wrapped in it and fail the compilation.
var ErrExecutorUnavailable = errors.New("prob: job executor unavailable")

// Assign is one Shannon-expansion decision: variable x set to Val. A job's
// Path is the sequence of Assigns from the decision-tree root to the job's
// fork point; replaying it against the post-init state reproduces the
// forking worker's masks bit-exactly (propagation is deterministic), which
// is why jobs ship paths instead of mask snapshots.
type Assign struct {
	Var event.VarID
	Val bool
}

// WireJob is one depth-d decision-tree fragment shipped to an executor
// (paper §4.4). OI is the variable-order position to resume from, P the
// branch probability at the fork point, and E the per-target error budgets
// the job carries (all zero for exact compilation). Timeout, when positive,
// bounds the job's execution from its start; the result then returns
// partial with TimedOut set.
type WireJob struct {
	ID      uint64
	Path    []Assign
	OI      int
	P       float64
	E       []float64
	Timeout time.Duration
}

// ItemKind discriminates WireItem entries.
type ItemKind uint8

const (
	// ItemAdd records one bound contribution (boundsBook.add).
	ItemAdd ItemKind = iota
	// ItemFork marks where a continuation job was forked; Fork indexes the
	// result's Forks slice. The coordinator splices the child's full item
	// stream at this position, reproducing sequential DFS order.
	ItemFork
)

// WireItem is one entry of a job's ordered result stream. Float addition is
// not associative, so bit-identical marginals require replaying the adds in
// the exact order the sequential run would produce them; the item stream,
// with fork markers spliced recursively, is that order.
type WireItem struct {
	Kind   ItemKind
	Target int32
	IsTrue bool
	Fork   int32
	Mass   float64
}

// WireFork describes a continuation job forked while executing a job: the
// full root-relative assignment path, resume position, branch probability,
// and the budget shipped with it.
type WireFork struct {
	Path []Assign
	OI   int
	P    float64
	E    []float64
}

// JobStats counts the work one job performed (worker-side).
type JobStats struct {
	Branches     int64
	Assignments  int64
	MaskUpdates  int64
	BudgetPrunes int64
	MaxDepth     int64
}

// WireResult is a completed job: the ordered item stream, the fork specs the
// stream references, the residual error budget to return to the shared pool,
// and work stats. Results are deterministic for exact compilation — re-
// executing the same job after a worker loss reproduces the same stream, so
// merging a duplicate completion is idempotent by construction.
type WireResult struct {
	ID       uint64
	Items    []WireItem
	Forks    []WireFork
	Residual []float64
	TimedOut bool
	Stats    JobStats
}

// JobExecutor executes decision-tree jobs. internal/dist's remote worker pool
// is the production implementation; the tests run jobs in-process against a
// Session. Implementations must be safe for concurrent ExecuteJob calls.
type JobExecutor interface {
	// ExecuteJob runs one job to completion. Transport-level failures
	// (worker death, broken pipe, no capacity) are reported as errors
	// wrapping ErrExecutorUnavailable; other errors are permanent.
	ExecuteJob(ctx context.Context, j *WireJob) (*WireResult, error)
	// Slots is the executor's current parallel capacity; the coordinator
	// keeps at most this many jobs in flight. It may change over time as
	// workers join or die; 0 means the executor cannot take work.
	Slots() int
}
