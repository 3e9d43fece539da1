package prob

import (
	"math"
	"sync/atomic"

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
