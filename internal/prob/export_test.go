package prob

import (
	"context"
	"math"
	"sort"
	"sync/atomic"

	"enframe/internal/event"
	"enframe/internal/network"
	"enframe/internal/vec"
)

// PoisonReleasedBlocks makes every mask block entering the free list
// unreadable until restore runs: NaN bounds and sums, all-ones truth and
// open planes, garbage counters, kinds, tags and aux stamps, every target
// masked, and a level whose next assignment equals the stamp of nodes never
// trailed. A block read before it is fully rewritten then changes a result.
// released counts the poisoned blocks.
func PoisonReleasedBlocks() (released func() int64, restore func()) {
	var n atomic.Int64
	hook := func(b *fblock) {
		poisonBlock(b)
		n.Add(1)
	}
	releaseHook.Store(&hook)
	return n.Load, func() { releaseHook.Store(nil) }
}

func poisonBlock(b *fblock) {
	nan := math.NaN()
	for _, p := range []bitset{b.decT, b.decF, b.open} {
		p = p[:cap(p)]
		for i := range p {
			p[i] = ^uint64(0)
		}
	}
	ab := b.ab[:cap(b.ab)]
	for i := range ab {
		ab[i] = nabs{lo: nan, hi: nan, cnt: -7777, trailedAt: math.MaxInt32, aux: math.MaxInt32,
			vkf: 0xff, tag: 0xff, queued: true, kind: 0xff}
	}
	sums := b.sums[:cap(b.sums)]
	for i := range sums {
		sums[i] = sumAgg{c2: -7777, c3: -7777, c4: -7777, sumLo: nan, sumHi: nan}
	}
	vv := b.vecVals[:cap(b.vecVals)]
	for i := range vv {
		vv[i] = vec.Vec{nan}
	}
	tm := b.tMasked[:cap(b.tMasked)]
	for i := range tm {
		tm[i] = true
	}
	b.openTargets, b.level = -7777, -2
}

// SameBlockClass reports whether two networks' mask blocks share a free-list
// shape, so that compiling one recycles the other's blocks.
func SameBlockClass(a, b *network.Net) bool { return blockShapeOf(a) == blockShapeOf(b) }

func blockShapeOf(net *network.Net) blockShape {
	types, err := net.Types()
	if err != nil {
		panic(err)
	}
	s := newFstate(net, types, Options{}, newBoundsBook(len(net.Targets), 0), false)
	defer s.release()
	return s.shape
}

// ParentIndex runs the parent-index pass a compilation makes once, in
// newFstate, and returns the index: node id's parents are
// ids[off[id]:off[id+1]].
func ParentIndex(net *network.Net) (off []int32, ids []network.NodeID) {
	p := newParentIndex(net)
	return p.off, p.ids
}

// FanoutCounts returns the influence counts FanoutOrder sorts by, indexed by
// variable id (0 for a variable the network does not reference).
func FanoutCounts(net *network.Net) []int {
	var vars []event.VarID
	for x, id := range net.VarNode {
		if id != network.NoNode {
			vars = append(vars, event.VarID(x))
		}
	}
	return fanout(net, vars)
}

// FanoutRef is the reference FanoutOrder: one upward depth-first search per
// referenced variable over the compilation's parent index, counting the
// nodes reachable from its leaf, the leaf included, with epoch-stamped
// visits; then the order by count, most first, ties by variable id. It
// returns the order and the counts, indexed by variable id.
func FanoutRef(net *network.Net) ([]event.VarID, []int) {
	pars := newParentIndex(net)
	influence := make([]int, len(net.VarNode))
	var vars []event.VarID
	visited := make([]int32, net.NumNodes())
	epoch := int32(0)
	var stack []network.NodeID
	for x, leaf := range net.VarNode {
		if leaf == network.NoNode {
			continue
		}
		vars = append(vars, event.VarID(x))
		epoch++
		stack = append(stack[:0], leaf)
		visited[leaf] = epoch
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			influence[x]++
			for _, p := range pars.of(id) {
				if visited[p] != epoch {
					visited[p] = epoch
					stack = append(stack, p)
				}
			}
		}
	}
	sort.SliceStable(vars, func(i, j int) bool {
		return influence[vars[i]] > influence[vars[j]]
	})
	return vars, influence
}

// LocalExecutor runs jobs in-process against a Session: the JobExecutor the
// executor tests compare CompileExec against in-process compilation with.
type LocalExecutor struct {
	sess  *Session
	slots int
}

// NewLocalExecutor wraps a session as a JobExecutor with the given
// concurrency (minimum 1).
func NewLocalExecutor(sess *Session, slots int) *LocalExecutor {
	if slots < 1 {
		slots = 1
	}
	return &LocalExecutor{sess: sess, slots: slots}
}

func (l *LocalExecutor) ExecuteJob(ctx context.Context, j *WireJob) (*WireResult, error) {
	return l.sess.ExecJob(ctx, j)
}

func (l *LocalExecutor) Slots() int { return l.slots }
