package prob

import (
	"time"

	"enframe/internal/event"
	"enframe/internal/network"
)

// CompileRef is a reference implementation of exact compilation that
// recomputes an interval abstract interpretation of the whole network at
// every decision-tree node instead of propagating masks incrementally. It
// is slower than Compile but structurally much simpler; the two are
// differential-tested against each other, and the masking-vs-recompute
// ablation benchmark quantifies the gap.
func CompileRef(net *network.Net, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if len(net.Targets) == 0 {
		return nil, ErrNoTargets
	}
	types, err := net.Types()
	if err != nil {
		return nil, err
	}
	r := &refRun{
		net:   net,
		types: types,
		order: computeOrder(net, opts, new(parentIndex)),
		abs:   make([]refAbs, net.NumNodes()),
		nu:    make([]int8, net.Space.Len()),
		lo:    make([]float64, len(net.Targets)),
		hi:    make([]float64, len(net.Targets)),
		acct:  make([]bool, len(net.Targets)),
	}
	for i := range r.nu {
		r.nu[i] = bUnknown
	}
	for i := range r.hi {
		r.hi[i] = 1
	}
	if opts.Timeout > 0 {
		r.deadline = time.Now().Add(opts.Timeout)
	}
	start := time.Now()
	r.dfs(0, 1)
	res := &Result{TimedOut: r.timedOut}
	res.Stats.Branches = r.branches
	res.Stats.Duration = time.Since(start)
	res.Stats.NetworkNodes = net.NumNodes()
	res.Stats.Jobs = 1
	for i, t := range net.Targets {
		res.Targets = append(res.Targets, TargetBound{Name: t.Name, Lower: r.lo[i], Upper: r.hi[i]})
	}
	return res, nil
}

// refAbs is the abstract value of one node under a partial assignment.
type refAbs struct {
	bval    int8
	decided bool
	val     event.Value
	mayU    bool
	lo, hi  float64
	bounded bool
}

type refRun struct {
	net      *network.Net
	types    []network.ValueType
	order    []event.VarID
	abs      []refAbs
	nu       []int8 // per-variable partial assignment
	lo, hi   []float64
	acct     []bool // target accounted on current branch
	branches int64
	deadline time.Time
	timedOut bool
}

func (r *refRun) dfs(oi int, p float64) {
	r.branches++
	if r.branches&255 == 0 && !r.deadline.IsZero() && time.Now().After(r.deadline) {
		r.timedOut = true
	}
	if r.timedOut || p == 0 {
		return
	}
	r.pass()
	var newly []int
	allDone := true
	for i, t := range r.net.Targets {
		if r.acct[i] {
			continue
		}
		a := &r.abs[t.Node]
		if a.bval == bUnknown {
			allDone = false
			continue
		}
		if a.bval == bTrue {
			r.lo[i] += p
		} else {
			r.hi[i] -= p
		}
		r.acct[i] = true
		newly = append(newly, i)
	}
	if !allDone {
		if oi < len(r.order) {
			x := r.order[oi]
			px := r.net.Space.Prob(x)
			r.nu[x] = bTrue
			r.dfs(oi+1, p*px)
			r.nu[x] = bFalse
			r.dfs(oi+1, p*(1-px))
			r.nu[x] = bUnknown
		}
	}
	for _, i := range newly {
		r.acct[i] = false
	}
}

// pass recomputes the abstract value of every node bottom-up.
func (r *refRun) pass() {
	for id, kind := range r.net.Kind {
		kids := r.net.KidsOf(network.NodeID(id))
		arg := r.net.Arg[id]
		a := refAbs{}
		switch kind {
		case network.KVar:
			a.bval = r.nu[arg]
		case network.KConst:
			a.bval = boolMask(arg != 0)
		case network.KNot:
			a.bval = negMask(r.abs[kids[0]].bval)
		case network.KAnd:
			a.bval = bTrue
			for _, k := range kids {
				switch r.abs[k].bval {
				case bFalse:
					a.bval = bFalse
				case bUnknown:
					if a.bval != bFalse {
						a.bval = bUnknown
					}
				}
				if a.bval == bFalse {
					break
				}
			}
		case network.KOr:
			a.bval = bFalse
			for _, k := range kids {
				switch r.abs[k].bval {
				case bTrue:
					a.bval = bTrue
				case bUnknown:
					if a.bval != bTrue {
						a.bval = bUnknown
					}
				}
				if a.bval == bTrue {
					break
				}
			}
		case network.KCmp:
			a.bval = r.cmp(event.CmpOp(arg), kids)
		case network.KCondVal:
			val := r.net.Vals[arg]
			switch r.abs[kids[0]].bval {
			case bTrue:
				a.set(val)
			case bFalse:
				a.set(event.U)
			default:
				a.mayU = true
				if val.Kind == event.Scalar {
					a.lo, a.hi, a.bounded = val.S, val.S, true
				}
			}
		case network.KGuard:
			g := r.abs[kids[0]].bval
			v := &r.abs[kids[1]]
			switch g {
			case bFalse:
				a.set(event.U)
			case bTrue:
				a = *v
			default:
				a = *v
				a.decided = false
				a.mayU = true
				if v.decided {
					if v.val.Kind == event.Scalar {
						a.lo, a.hi, a.bounded = v.val.S, v.val.S, true
					} else {
						a.bounded = false
					}
				}
			}
		case network.KSum:
			allDec, allMayU := true, true
			lo, hi := 0.0, 0.0
			bounded := r.types[id] == network.TScalar
			for _, k := range kids {
				c := &r.abs[k]
				if !c.decided {
					allDec = false
				}
				if !c.mayU {
					allMayU = false
				}
				clo, chi, cb := refContrib(c)
				if !cb {
					bounded = false
				} else {
					lo += clo
					hi += chi
				}
			}
			if allDec {
				v := event.U
				for _, k := range kids {
					v = event.Add(v, r.abs[k].val)
				}
				a.set(v)
			} else {
				a.mayU = allMayU
				a.lo, a.hi, a.bounded = lo, hi, bounded
			}
		case network.KProd, network.KInv, network.KPow, network.KDist:
			allDec := true
			anyMustU := false
			for _, k := range kids {
				c := &r.abs[k]
				if !c.decided {
					allDec = false
				} else if c.val.IsUndef() {
					anyMustU = true
				}
			}
			switch {
			case anyMustU:
				a.set(event.U)
			case allDec:
				a.set(r.evalOp(kind, arg, kids))
			default:
				a.mayU = true
			}
		}
		r.abs[id] = a
	}
}

func (a *refAbs) set(v event.Value) {
	a.decided = true
	a.val = v
	a.mayU = v.IsUndef()
	if v.Kind == event.Scalar {
		a.lo, a.hi, a.bounded = v.S, v.S, true
	}
}

func refContrib(c *refAbs) (lo, hi float64, ok bool) {
	if c.decided {
		if c.val.IsUndef() {
			return 0, 0, true
		}
		if c.val.Kind != event.Scalar {
			return 0, 0, false
		}
		return c.val.S, c.val.S, true
	}
	if !c.bounded {
		return 0, 0, false
	}
	lo, hi = c.lo, c.hi
	if c.mayU {
		if lo > 0 {
			lo = 0
		}
		if hi < 0 {
			hi = 0
		}
	}
	return lo, hi, true
}

func (r *refRun) evalOp(kind network.Kind, arg int32, kids []network.NodeID) event.Value {
	switch kind {
	case network.KProd:
		v := event.Num(1)
		for _, k := range kids {
			v = event.Mul(v, r.abs[k].val)
		}
		return v
	case network.KInv:
		return event.Inv(r.abs[kids[0]].val)
	case network.KPow:
		return event.PowVal(r.abs[kids[0]].val, int(arg))
	case network.KDist:
		return event.DistVal(r.net.Metric, r.abs[kids[0]].val, r.abs[kids[1]].val)
	}
	panic("prob: evalOp on unexpected node")
}

func (r *refRun) cmp(op event.CmpOp, kids []network.NodeID) int8 {
	l, rt := &r.abs[kids[0]], &r.abs[kids[1]]
	if (l.decided && l.val.IsUndef()) || (rt.decided && rt.val.IsUndef()) {
		return bTrue
	}
	if l.decided && rt.decided {
		return boolMask(op.Holds(l.val.S, rt.val.S))
	}
	lb, ok1 := refBounds(l)
	rb, ok2 := refBounds(rt)
	if !ok1 || !ok2 {
		return bUnknown
	}
	switch op {
	case event.LE, event.LT:
		if lb.hi <= rb.lo-slack {
			return bTrue
		}
	case event.GE, event.GT:
		if lb.lo >= rb.hi+slack {
			return bTrue
		}
	}
	if !l.mayU && !rt.mayU {
		switch op {
		case event.LE, event.LT:
			if lb.lo >= rb.hi+slack {
				return bFalse
			}
		case event.GE, event.GT:
			if lb.hi <= rb.lo-slack {
				return bFalse
			}
		case event.EQ:
			if lb.lo >= rb.hi+slack || rb.lo >= lb.hi+slack {
				return bFalse
			}
		}
	}
	return bUnknown
}

type interval struct{ lo, hi float64 }

func refBounds(a *refAbs) (interval, bool) {
	if a.decided {
		if a.val.Kind != event.Scalar {
			return interval{}, false
		}
		return interval{a.val.S, a.val.S}, true
	}
	if !a.bounded {
		return interval{}, false
	}
	return interval{a.lo, a.hi}, true
}
