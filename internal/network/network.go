// Package network implements event networks (§4.1): directed acyclic graph
// representations of event programs in which expressions common to several
// events are represented once. Nodes are Boolean connectives, comparison
// atoms, aggregates, and c-values; the probability-computation algorithms of
// internal/prob operate on these graphs.
package network

import (
	"fmt"
	"slices"
	"unsafe"

	"enframe/internal/event"
	"enframe/internal/obs"
	"enframe/internal/vec"
)

// NodeID indexes a node of a network. Ids are dense and topologically
// ordered: every node's children have smaller ids.
type NodeID int32

// NoNode is the absent node id.
const NoNode NodeID = -1

// Kind enumerates the node types of an event network.
type Kind uint8

const (
	// KVar is a leaf for a random variable x ∈ X.
	KVar Kind = iota
	// KConst is the Boolean constant ⊤ or ⊥.
	KConst
	// KNot is Boolean negation.
	KNot
	// KAnd is n-ary conjunction.
	KAnd
	// KOr is n-ary disjunction.
	KOr
	// KCmp is a comparison atom [left op right] over two numeric nodes.
	KCmp
	// KCondVal is guard ⊗ const: the constant value when the Boolean
	// child holds, u otherwise.
	KCondVal
	// KGuard is guard ∧ cval: the numeric child's value when the Boolean
	// child holds, u otherwise. Children are [guard, value].
	KGuard
	// KSum is the n-ary Σ of numeric children.
	KSum
	// KProd is the n-ary Π of numeric children.
	KProd
	// KInv is the multiplicative inverse with 0⁻¹ = u.
	KInv
	// KPow is exponentiation by a constant integer.
	KPow
	// KDist is the distance between two (vector-valued) numeric children.
	KDist
)

func (k Kind) String() string {
	switch k {
	case KVar:
		return "var"
	case KConst:
		return "const"
	case KNot:
		return "not"
	case KAnd:
		return "and"
	case KOr:
		return "or"
	case KCmp:
		return "cmp"
	case KCondVal:
		return "condval"
	case KGuard:
		return "guard"
	case KSum:
		return "sum"
	case KProd:
		return "prod"
	case KInv:
		return "inv"
	case KPow:
		return "pow"
	case KDist:
		return "dist"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// numKinds is the number of node kinds (for per-kind counters).
const numKinds = int(KDist) + 1

// IsBool reports whether nodes of this kind carry Boolean values; the
// remaining kinds carry values of the extended numeric domain (scalars,
// vectors, u).
func (k Kind) IsBool() bool {
	switch k {
	case KVar, KConst, KNot, KAnd, KOr, KCmp:
		return true
	}
	return false
}

// Target is a compilation target: a named Boolean node whose probability the
// compiler computes.
type Target struct {
	Name string
	Node NodeID
}

// Net is a finalised, immutable event network in structure-of-arrays form:
// node kinds, CSR child spans into one shared slice, and one dense payload
// column, all indexed by NodeID. The probability compiler's packed core walks
// these contiguous slices directly — one cache line of Kind covers 64 nodes,
// and a node's children are KidOff[id]..KidOff[id+1] in one shared slice —
// and they are the only copy of the network there is. The network stores no
// parent index: only compilation walks it upward, so internal/prob derives
// the transpose per compilation and a cached network keeps just its children.
type Net struct {
	Space  *event.Space
	Metric vec.Distance
	// Kind is the per-node kind tag.
	Kind []Kind
	// KidOff has NumNodes()+1 entries; node id's children are
	// Kids[KidOff[id]:KidOff[id+1]] in construction order.
	KidOff []int32
	Kids   []NodeID
	// Arg is the per-node payload: the variable of a KVar node, 1 or 0 for
	// the ⊤ or ⊥ of a KConst node, the operator of a KCmp node, the exponent
	// of a KPow node, and the index into Vals of a KCondVal node's c-value;
	// 0 elsewhere.
	Arg []int32
	// Vals holds the distinct c-values of the ⊗ nodes, in order of first
	// use: ⊗ nodes whose c-values are bit-identical (the same distance
	// under different guards) share one entry.
	Vals []event.Value
	// Targets are the compilation targets, in registration order.
	Targets []Target
	// VarNode maps each random variable to its leaf node (NoNode when the
	// variable does not occur in the network); its length is the size of
	// the variable space when the network was built.
	VarNode []NodeID
}

// NumNodes reports the network size.
func (n *Net) NumNodes() int { return len(n.Kind) }

// KidsOf returns the child span of a node.
func (n *Net) KidsOf(id NodeID) []NodeID { return n.Kids[n.KidOff[id]:n.KidOff[id+1]] }

// Bytes reports the memory the network holds: the capacity of every column,
// the vector payloads of ⊗ constants, and the target names. The variable
// space and metric are shared with the caller and not counted.
func (n *Net) Bytes() int64 {
	const (
		i32    = int64(unsafe.Sizeof(int32(0)))
		valSz  = int64(unsafe.Sizeof(event.Value{}))
		targSz = int64(unsafe.Sizeof(Target{}))
		f64    = int64(unsafe.Sizeof(float64(0)))
	)
	b := int64(cap(n.Kind))*int64(unsafe.Sizeof(Kind(0))) +
		i32*int64(cap(n.KidOff)+cap(n.Kids)+cap(n.Arg)+cap(n.VarNode)) +
		valSz*int64(cap(n.Vals)) + targSz*int64(cap(n.Targets))
	for _, v := range n.Vals {
		b += f64 * int64(cap(v.V))
	}
	for _, t := range n.Targets {
		b += int64(len(t.Name))
	}
	return b
}

// KindCounts returns the number of live network nodes per node kind.
func (n *Net) KindCounts() map[string]int64 {
	var by [numKinds]int64
	for _, k := range n.Kind {
		by[k]++
	}
	out := make(map[string]int64, numKinds)
	for k, c := range by {
		if c > 0 {
			out[Kind(k).String()] = c
		}
	}
	return out
}

// Builder constructs a network with structural hash-consing: structurally
// identical subexpressions become the same node, so the repetitive event
// programs of data mining tasks stay compact. Construction is the serving
// layer's cold-request hot path, so the builder is engineered for it. Each
// vertex is a 16-byte pointer-free record whose kids sit in one shared arena
// and whose ⊗ constant sits in a side column of c-values; an open-addressed
// index hashes (kind, payload, ⊗ bits, kids) in place and confirms each hit
// against the stored record, so a lookup allocates nothing. Commutative ∧/∨
// children are canonically sorted before lookup so argument order cannot
// defeat sharing. Build then sweeps the live records straight into the Net's
// columns and hands the emptied table — records, arena, c-values and both
// indexes — to the next builder (tablePool). A builder is single-use:
// interning into it after Build, or building it twice, panics.
type Builder struct {
	*table
	space    *event.Space
	metric   vec.Distance
	exprMemo map[event.Expr]NodeID
	targets  []Target
	noFold   bool
	// bools caches the ids of ⊥ and ⊤ plus one (0 until first interned):
	// Not, Bool and the translator's reductions ask for them constantly.
	bools [2]NodeID
	// scratch is the reusable n-ary flattening buffer; pair backs
	// fixed-arity child lists during lookup.
	scratch []NodeID
	pair    [2]NodeID
	// Hash-cons accounting: lookups and hits of intern, created nodes per
	// kind, canonical reorderings. Published to reg (when set) by Build.
	lookups     int64
	hits        int64
	canon       int64
	kindCreated [numKinds]int64
	reg         *obs.Registry
}

// NewBuilder returns a builder over the given variable space. A nil metric
// defaults to Euclidean distance.
func NewBuilder(space *event.Space, metric vec.Distance) *Builder {
	return newBuilder(space, metric, getTable())
}

// newBuilder is NewBuilder interning into the given empty table.
func newBuilder(space *event.Space, metric vec.Distance, t *table) *Builder {
	if metric == nil {
		metric = vec.Euclidean
	}
	return &Builder{
		table:    t,
		space:    space,
		metric:   metric,
		exprMemo: make(map[event.Expr]NodeID),
	}
}

// boolArg is the Arg payload of the constant ⊤ (1) or ⊥ (0).
func boolArg(v bool) int32 {
	if v {
		return 1
	}
	return 0
}

// intern looks up the node (kind, arg, kids) — a ⊗ node by its c-value val
// instead of arg — creating it on a miss, and counts the lookup.
func (b *Builder) intern(kind Kind, arg int32, val *event.Value, kids []NodeID) NodeID {
	b.lookups++
	id, created := b.table.intern(kind, arg, val, kids)
	if created {
		b.kindCreated[kind]++
	} else {
		b.hits++
	}
	return id
}

// SetObs directs the builder to publish hash-cons and node-kind metrics to
// the registry when Build runs. A nil registry disables publishing.
func (b *Builder) SetObs(reg *obs.Registry) { b.reg = reg }

// BuilderStats is the hash-cons accounting of one network construction.
type BuilderStats struct {
	// Lookups counts intern consults; Hits of them resolved to an already
	// existing structurally identical node.
	Lookups int64
	Hits    int64
	// Created counts distinct nodes built (Lookups − Hits).
	Created int64
	// CanonRewrites counts ∧/∨ constructions whose children arrived in
	// non-canonical order and were sorted before the intern lookup.
	CanonRewrites int64
	// ByKind breaks Created down per node kind.
	ByKind map[string]int64
}

// HitRate returns Hits/Lookups (0 when nothing was interned).
func (s BuilderStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Stats snapshots the builder's hash-cons accounting; valid before and
// after Build.
func (b *Builder) Stats() BuilderStats {
	st := BuilderStats{
		Lookups:       b.lookups,
		Hits:          b.hits,
		Created:       b.lookups - b.hits,
		CanonRewrites: b.canon,
		ByKind:        make(map[string]int64, numKinds),
	}
	for k, c := range b.kindCreated {
		if c > 0 {
			st.ByKind[Kind(k).String()] = c
		}
	}
	return st
}

// Var returns the leaf node for variable x.
func (b *Builder) Var(x event.VarID) NodeID {
	return b.intern(KVar, int32(x), nil, nil)
}

// Bool returns the constant node for ⊤ or ⊥. A cached answer counts as an
// intern hit, so the hash-cons accounting does not depend on the cache.
func (b *Builder) Bool(v bool) NodeID {
	c := &b.bools[boolArg(v)]
	if *c != 0 {
		b.lookups++
		b.hits++
		return *c - 1
	}
	id := b.intern(KConst, boolArg(v), nil, nil)
	*c = id + 1
	return id
}

// intern1 and intern2 intern fixed-arity nodes through the builder-held pair
// buffer, keeping the child list off the heap during lookup.
func (b *Builder) intern1(kind Kind, arg int32, val *event.Value, k NodeID) NodeID {
	b.pair[0] = k
	return b.intern(kind, arg, val, b.pair[:1])
}

func (b *Builder) intern2(kind Kind, arg int32, l, r NodeID) NodeID {
	b.pair[0], b.pair[1] = l, r
	return b.intern(kind, arg, nil, b.pair[:2])
}

// Not returns ¬k, simplifying constants and double negation.
func (b *Builder) Not(k NodeID) NodeID {
	switch r := &b.recs[k]; r.kind {
	case KConst:
		return b.Bool(r.arg == 0)
	case KNot:
		return b.kids[r.off]
	}
	return b.intern1(KNot, 0, nil, k)
}

// And returns the conjunction of ks, flattening, deduplicating, and
// simplifying constants. Children are canonically sorted: ∧ and ∨ are
// commutative, so structurally equal connectives built in any argument
// order intern to one node.
func (b *Builder) And(ks ...NodeID) NodeID { return b.nary(KAnd, ks) }

// Or returns the disjunction of ks, flattening, deduplicating, and
// simplifying constants, with the same canonical child order as And.
func (b *Builder) Or(ks ...NodeID) NodeID { return b.nary(KOr, ks) }

func (b *Builder) nary(kind Kind, ks []NodeID) NodeID {
	neutral, absorbing := true, false // KAnd
	if kind == KOr {
		neutral, absorbing = false, true
	}
	flat := b.scratch[:0]
	for _, k := range ks {
		r := &b.recs[k]
		if r.kind == KConst {
			if (r.arg != 0) == absorbing {
				b.scratch = flat
				return b.Bool(absorbing)
			}
			continue // neutral element dropped
		}
		if r.kind == kind {
			// Nested chains flatten; their children are already canonical
			// but must be re-sorted against the siblings below.
			flat = append(flat, b.kidsOf(k)...)
			continue
		}
		flat = append(flat, k)
	}
	// Canonicalise: sort children and drop adjacent duplicates (∧/∨ are
	// commutative and idempotent). This is what lifts the hash-cons hit
	// rate — iteration-order differences in the front end no longer mint
	// fresh nodes for the same connective.
	if !slices.IsSorted(flat) {
		slices.Sort(flat)
		b.canon++
	}
	flat = dedupSorted(flat)
	b.scratch = flat[:0]
	switch len(flat) {
	case 0:
		return b.Bool(neutral)
	case 1:
		return flat[0]
	}
	return b.intern(kind, 0, nil, flat)
}

// dedupSorted removes adjacent duplicates in place.
func dedupSorted(xs []NodeID) []NodeID {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// undef is the value constOf reports for a ⊗ node with the guard ⊥.
var undef = event.U

// constOf returns the value of a numeric node that is a build-time constant
// of the extended domain (a ⊗ node with a constant guard), or nil. The value
// is shared and must not be modified.
func (b *Builder) constOf(id NodeID) *event.Value {
	r := &b.recs[id]
	if r.kind != KCondVal {
		return nil
	}
	if g := &b.recs[b.kids[r.off]]; g.kind == KConst {
		if g.arg != 0 {
			return &b.vals[r.arg]
		}
		return &undef
	}
	return nil
}

// Cmp returns the comparison node [l op r], folded to a Boolean constant
// when both sides are build-time constants. This partial evaluation is what
// collapses the sub-networks ranging only over certain data points (§5,
// Fig. 8).
func (b *Builder) Cmp(op event.CmpOp, l, r NodeID) NodeID {
	if !b.noFold {
		if lv := b.constOf(l); lv != nil {
			if rv := b.constOf(r); rv != nil {
				return b.Bool(event.Compare(op, *lv, *rv))
			}
		}
	}
	return b.intern2(KCmp, int32(op), l, r)
}

// CondVal returns guard ⊗ val for a constant value.
func (b *Builder) CondVal(guard NodeID, val event.Value) NodeID {
	return b.intern1(KCondVal, 0, &val, guard)
}

// ConstNum returns the always-defined constant ⊤ ⊗ val.
func (b *Builder) ConstNum(val event.Value) NodeID { return b.CondVal(b.Bool(true), val) }

// Guard returns guard ∧ v. When v is itself a conditional constant the
// guards are merged into a single ⊗ node.
func (b *Builder) Guard(guard, v NodeID) NodeID {
	if g := &b.recs[guard]; g.kind == KConst {
		if g.arg != 0 {
			return v
		}
		return b.CondVal(b.Bool(false), event.U)
	}
	if r := b.recs[v]; r.kind == KCondVal {
		g := b.And(guard, b.kids[r.off])
		return b.intern1(KCondVal, 0, &b.vals[r.arg], g)
	}
	return b.intern2(KGuard, 0, guard, v)
}

// Sum returns Σ ks, flattening nested sums. With constant folding enabled
// (the default), children that are certainly-defined constants (⊤ ⊗ v) are
// pre-summed into a single constant child: this is why certain data points
// speed up compilation (§5, Fig. 8) — "distance sums … can be initialised
// using the distances to objects that certainly exist".
func (b *Builder) Sum(ks ...NodeID) NodeID { return b.naryNum(KSum, ks) }

// Prod returns Π ks, flattening nested products.
func (b *Builder) Prod(ks ...NodeID) NodeID { return b.naryNum(KProd, ks) }

func (b *Builder) naryNum(kind Kind, ks []NodeID) NodeID {
	// Σ/Π children keep their construction order: floating-point addition
	// is not associative-commutative bit-for-bit, and evaluation must follow
	// the order the program wrote the terms in.
	flat := b.scratch[:0]
	for _, k := range ks {
		if b.recs[k].kind == kind {
			flat = append(flat, b.kidsOf(k)...)
			continue
		}
		flat = append(flat, k)
	}
	if kind == KSum && !b.noFold {
		folded := flat[:0]
		acc := event.U
		nConst := 0
		for _, k := range flat {
			if v := b.constOf(k); v != nil {
				// Defined constants pre-sum; certainly-undefined terms are
				// the identity of + and drop out entirely.
				acc = event.Add(acc, *v)
				nConst++
				continue
			}
			folded = append(folded, k)
		}
		if nConst > 0 && !acc.IsUndef() {
			folded = append(folded, b.ConstNum(acc))
		}
		flat = folded
	}
	if kind == KProd && !b.noFold {
		folded := flat[:0]
		acc := event.Num(1)
		nConst := 0
		for _, k := range flat {
			if v := b.constOf(k); v != nil {
				if v.IsUndef() {
					// u annihilates the whole product.
					return b.ConstNum(event.U)
				}
				acc = event.Mul(acc, *v)
				nConst++
				continue
			}
			folded = append(folded, k)
		}
		if nConst > 0 {
			folded = append(folded, b.ConstNum(acc))
		}
		flat = folded
	}
	b.scratch = flat[:0]
	switch len(flat) {
	case 0:
		// Σ of nothing is the undefined value u.
		return b.CondVal(b.Bool(false), event.U)
	case 1:
		return flat[0]
	}
	return b.intern(kind, 0, nil, flat)
}

// DisableConstFold turns off the builder's constant folds — Σ, Π, Inv,
// Pow, comparisons and dist over ⊗ nodes. The unfolded network is the
// reference the folds are checked against in TestDistFoldsGuardedPayloads,
// TestEvalMatchesEventSemantics and TestTypesVectorPropagation.
func (b *Builder) DisableConstFold() { b.noFold = true }

// Inv returns k⁻¹, folding constants.
func (b *Builder) Inv(k NodeID) NodeID {
	if v := b.constOf(k); v != nil && !b.noFold {
		return b.ConstNum(event.Inv(*v))
	}
	return b.intern1(KInv, 0, nil, k)
}

// Pow returns k^exp, folding constants. The exponent must fit the 32-bit
// payload column; the translator rejects programs whose exponents do not.
func (b *Builder) Pow(k NodeID, exp int) NodeID {
	if v := b.constOf(k); v != nil && !b.noFold {
		return b.ConstNum(event.PowVal(*v, exp))
	}
	if exp != int(int32(exp)) {
		panic(fmt.Sprintf("network: exponent %d out of range", exp))
	}
	return b.intern1(KPow, int32(exp), nil, k)
}

// Dist returns dist(l, r). When both endpoints are ⊗ nodes it folds
// dist(g₁⊗v₁, g₂⊗v₂) to (g₁∧g₂) ⊗ dist(v₁, v₂): u annihilates dist (§3.2),
// so the distance is defined exactly when both guards hold, and then it is
// the constant distance of the two payloads. Constant endpoints (⊤ guards)
// are the special case that folds to a constant. A distance between two
// uncertain data objects thus becomes a guarded constant with bounds from
// the start, and a Σ of them is initialised with constant distances (§5).
func (b *Builder) Dist(l, r NodeID) NodeID {
	if lr, rr := b.recs[l], b.recs[r]; !b.noFold && lr.kind == KCondVal && rr.kind == KCondVal {
		d := event.DistVal(b.metric, b.vals[lr.arg], b.vals[rr.arg])
		if d.IsUndef() {
			return b.CondVal(b.Bool(false), event.U)
		}
		return b.CondVal(b.And(b.kids[lr.off], b.kids[rr.off]), d)
	}
	return b.intern2(KDist, 0, l, r)
}

// AddExpr compiles a Boolean lineage formula into the network, sharing
// previously compiled subexpressions both by pointer and by structure.
func (b *Builder) AddExpr(e event.Expr) NodeID {
	if id, ok := b.exprMemo[e]; ok {
		return id
	}
	var id NodeID
	switch t := e.(type) {
	case *event.Var:
		id = b.Var(t.X)
	case *event.Const:
		id = b.Bool(t.B)
	case *event.Not:
		id = b.Not(b.AddExpr(t.E))
	case *event.And:
		ks := make([]NodeID, len(t.Es))
		for i, c := range t.Es {
			ks[i] = b.AddExpr(c)
		}
		id = b.And(ks...)
	case *event.Or:
		ks := make([]NodeID, len(t.Es))
		for i, c := range t.Es {
			ks[i] = b.AddExpr(c)
		}
		id = b.Or(ks...)
	default:
		panic("network: unknown event expression type")
	}
	b.exprMemo[e] = id
	return id
}

// Target registers a compilation target for the given Boolean node.
func (b *Builder) Target(name string, id NodeID) {
	if !b.recs[id].kind.IsBool() {
		panic(fmt.Sprintf("network: target %q is not a Boolean node", name))
	}
	b.targets = append(b.targets, Target{Name: name, Node: id})
}

// Build finalises the network: when targets are registered, nodes
// unreachable from any target (construction garbage left behind by constant
// folding) are swept away, and the live nodes are written straight into the
// Net's columns, keeping their relative id order and child order. The
// builder's table then goes back to the pool: using the builder afterwards
// panics, and so does a second Build.
func (b *Builder) Build() *Net {
	if b.table == nil {
		panic("network: Builder used after Build")
	}
	remap, valRemap, live, edges, vals := b.liveIDs()
	net := &Net{
		Space:   b.space,
		Metric:  b.metric,
		Kind:    make([]Kind, live),
		KidOff:  make([]int32, live+1),
		Kids:    make([]NodeID, 0, edges),
		Arg:     make([]int32, live),
		Vals:    make([]event.Value, vals),
		Targets: make([]Target, len(b.targets)),
		VarNode: make([]NodeID, b.space.Len()),
	}
	for i := range net.VarNode {
		net.VarNode[i] = NoNode
	}
	for old := range b.recs {
		id := remap[old]
		if id == NoNode {
			continue
		}
		r := &b.recs[old]
		net.Kind[id] = r.kind
		net.KidOff[id] = int32(len(net.Kids))
		for _, k := range b.kidsOf(NodeID(old)) {
			net.Kids = append(net.Kids, remap[k])
		}
		net.Arg[id] = r.arg
		switch r.kind {
		case KVar:
			net.VarNode[r.arg] = id
		case KCondVal:
			vi := valRemap[r.arg]
			net.Arg[id] = vi
			net.Vals[vi] = b.vals[r.arg]
		}
	}
	net.KidOff[live] = int32(len(net.Kids))
	for i, t := range b.targets {
		net.Targets[i] = Target{Name: t.Name, Node: remap[t.Node]}
	}
	putTable(b.table)
	b.table = nil
	b.exprMemo = nil
	if b.reg != nil {
		st := b.Stats()
		b.reg.Counter("network.hashcons.lookups").Add(st.Lookups)
		b.reg.Counter("network.hashcons.hits").Add(st.Hits)
		b.reg.Counter("network.nodes.created").Add(st.Created)
		b.reg.Counter("network.nodes.live").Add(int64(live))
		b.reg.Gauge("network.hashcons.hit_rate").Set(st.HitRate())
		b.reg.Counter("network.builder.canon_rewrites").Add(st.CanonRewrites)
		for kind, c := range net.KindCounts() {
			b.reg.Counter("network.nodes.kind." + kind).Add(c)
		}
	}
	return net
}

// liveIDs maps every constructed node to its id in the built network —
// dense and in construction order — or to NoNode when it is unreachable
// downward from every target (with no targets registered, every node is
// live). It likewise maps every c-value a live ⊗ node uses to its Net.Vals
// index, dense in order of first use, and counts the live nodes, their child
// edges, and the distinct live c-values, so Build can size each column
// exactly.
func (b *Builder) liveIDs() (remap []NodeID, valRemap []int32, live, edges, vals int) {
	remap = fitLen(b.remap, len(b.recs))
	b.remap = remap
	clear(remap) // 0 marks live until ids are assigned
	if len(b.targets) > 0 {
		for i := range remap {
			remap[i] = NoNode
		}
		stack := b.stack[:0]
		mark := func(id NodeID) {
			if remap[id] == NoNode {
				remap[id] = 0
				stack = append(stack, id)
			}
		}
		for _, t := range b.targets {
			mark(t.Node)
		}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, k := range b.kidsOf(id) {
				mark(k)
			}
		}
		b.stack = stack
	}
	valRemap = fitLen(b.valRemap, len(b.vals))
	b.valRemap = valRemap
	for i := range valRemap {
		valRemap[i] = -1
	}
	for id, r := range b.recs {
		if remap[id] == NoNode {
			continue
		}
		remap[id] = NodeID(live)
		live++
		edges += int(r.n)
		if r.kind == KCondVal && valRemap[r.arg] < 0 {
			valRemap[r.arg] = int32(vals)
			vals++
		}
	}
	return remap, valRemap, live, edges, vals
}

// fitLen returns s resized to n, reallocating only when its capacity is too
// small; the contents are left as they are.
func fitLen[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}
