package prob

import (
	"sync"
	"sync/atomic"
)

// boundsBook holds the shared lower/upper probability bounds of all
// compilation targets. It is safe for concurrent use by distributed workers;
// bounds only tighten, and a target whose gap reaches 2ε is marked tight
// exactly once.
type boundsBook struct {
	mu     sync.Mutex
	lo, hi []float64
	eps2   float64
	tight  []bool
	nLoose atomic.Int64
}

func newBoundsBook(n int, eps2 float64) *boundsBook {
	b := &boundsBook{
		lo:    make([]float64, n),
		hi:    make([]float64, n),
		eps2:  eps2,
		tight: make([]bool, n),
	}
	for i := range b.hi {
		b.hi[i] = 1
	}
	loose := int64(0)
	for i := range b.tight {
		if 1 <= eps2 {
			b.tight[i] = true
		} else {
			loose++
		}
	}
	b.nLoose.Store(loose)
	return b
}

// add records that a target was masked true (mass joins the lower bound) or
// false (mass leaves the upper bound) on a branch of probability p.
func (b *boundsBook) add(ti int, isTrue bool, p float64) {
	b.mu.Lock()
	if debugHook != nil {
		debugHook("bounds.add t%d %t mass=%g\n", ti, isTrue, p)
	}
	if isTrue {
		b.lo[ti] += p
	} else {
		b.hi[ti] -= p
	}
	if !b.tight[ti] && b.hi[ti]-b.lo[ti] <= b.eps2 {
		b.tight[ti] = true
		b.nLoose.Add(-1)
	}
	b.mu.Unlock()
}

// allTight reports whether every target's bounds are within 2ε.
func (b *boundsBook) allTight() bool { return b.nLoose.Load() == 0 }

// settledWith reports whether every target is either branch-masked (per the
// caller's flags) or globally tight.
func (b *boundsBook) settledWith(masked []bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, t := range b.tight {
		if !t && !masked[i] {
			return false
		}
	}
	return true
}

// restoreFrom resets the book to a bit-exact copy of src. src must be
// quiescent (session executors restore from a post-init book that is never
// written again); b must have the same target count.
func (b *boundsBook) restoreFrom(src *boundsBook) {
	b.mu.Lock()
	copy(b.lo, src.lo)
	copy(b.hi, src.hi)
	copy(b.tight, src.tight)
	b.eps2 = src.eps2
	loose := int64(0)
	for _, t := range src.tight {
		if !t {
			loose++
		}
	}
	b.nLoose.Store(loose)
	b.mu.Unlock()
}

// snapshot copies the current bounds.
func (b *boundsBook) snapshot() (lo, hi []float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	lo = append([]float64(nil), b.lo...)
	hi = append([]float64(nil), b.hi...)
	return lo, hi
}

// debugHook, when set by tests, receives tracing output.
var debugHook func(format string, args ...any)
