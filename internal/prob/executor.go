package prob

import (
	"context"
	"errors"
	"time"

	"enframe/internal/event"
)

// ErrExecutorUnavailable marks transport-level executor failures: the worker
// process died, the connection broke, no executor has free capacity left, or
// an executor answered with a result that does not fit the network.
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
	Var event.VarID `json:"v"`
	Val bool        `json:"b,omitempty"`
}

// WireJob is one depth-d decision-tree fragment shipped to an executor
// (paper §4.4). OI is the variable-order position to resume from, P the
// branch probability at the fork point, and E the per-target error budgets
// the job carries (all zero for exact compilation). Timeout, when positive,
// bounds the job's execution from its start; the result then returns
// partial with TimedOut set. The JSON names are the worker plane's wire
// form, as are those of WireResult and the types it holds.
type WireJob struct {
	ID      uint64        `json:"id"`
	Path    []Assign      `json:"path,omitempty"`
	OI      int           `json:"oi,omitempty"`
	P       float64       `json:"p"`
	E       []float64     `json:"e,omitempty"`
	Timeout time.Duration `json:"timeout_ns,omitempty"`
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
	Kind   ItemKind `json:"k"`
	Target int32    `json:"t,omitempty"`
	IsTrue bool     `json:"b,omitempty"`
	Fork   int32    `json:"f,omitempty"`
	Mass   float64  `json:"m,omitempty"`
}

// WireFork describes a continuation job forked while executing a job: the
// full root-relative assignment path, resume position, branch probability,
// and the budget shipped with it.
type WireFork struct {
	Path []Assign  `json:"path,omitempty"`
	OI   int       `json:"oi,omitempty"`
	P    float64   `json:"p"`
	E    []float64 `json:"e,omitempty"`
}

// JobStats counts the work one job performed (worker-side).
type JobStats struct {
	Branches     int64 `json:"branches,omitempty"`
	Assignments  int64 `json:"assignments,omitempty"`
	MaskUpdates  int64 `json:"mask_updates,omitempty"`
	BudgetPrunes int64 `json:"budget_prunes,omitempty"`
	MaxDepth     int64 `json:"max_depth,omitempty"`
}

// WireResult is a completed job: the ordered item stream, the fork specs the
// stream references, the residual error budget to return to the shared pool,
// and work stats. Results are deterministic for exact compilation — re-
// executing the same job after a worker loss reproduces the same stream, so
// merging a duplicate completion is idempotent by construction.
type WireResult struct {
	ID       uint64     `json:"id"`
	Items    []WireItem `json:"items,omitempty"`
	Forks    []WireFork `json:"forks,omitempty"`
	Residual []float64  `json:"residual,omitempty"`
	TimedOut bool       `json:"timed_out,omitempty"`
	Stats    JobStats   `json:"stats"`
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
