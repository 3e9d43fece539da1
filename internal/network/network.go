// Package network implements event networks (§4.1): directed acyclic graph
// representations of event programs in which expressions common to several
// events are represented once. Nodes are Boolean connectives, comparison
// atoms, aggregates, and c-values; the probability-computation algorithms of
// internal/prob operate on these graphs.
package network

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
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

// Node is one vertex of an event network.
type Node struct {
	Kind Kind
	Kids []NodeID
	// Var is the random variable of a KVar node.
	Var event.VarID
	// B is the constant of a KConst node.
	B bool
	// Val is the constant payload of a KCondVal node.
	Val event.Value
	// Op is the operator of a KCmp node.
	Op event.CmpOp
	// Exp is the exponent of a KPow node.
	Exp int
}

// Target is a compilation target: a named Boolean node whose probability the
// compiler computes.
type Target struct {
	Name string
	Node NodeID
}

// Net is a finalised, immutable event network.
type Net struct {
	Space   *event.Space
	Metric  vec.Distance
	Nodes   []Node
	Parents [][]NodeID
	Targets []Target
	// VarNode maps each random variable to its leaf node (NoNode when the
	// variable does not occur in the network).
	VarNode []NodeID

	// flat is the lazily built structure-of-arrays view (see Flat).
	flatOnce sync.Once
	flat     *Flat
}

// NumNodes reports the network size.
func (n *Net) NumNodes() int { return len(n.Nodes) }

// Bytes estimates the memory the network holds once compiled against: the
// node structs with their child and parent edge lists, doubled for the flat
// structure-of-arrays view the first compilation builds beside them. The
// variable space and metric are shared with the caller and not counted.
func (n *Net) Bytes() int64 {
	const (
		nodeBytes   = int64(unsafe.Sizeof(Node{}))
		sliceHeader = int64(unsafe.Sizeof([]NodeID(nil)))
		idBytes     = int64(unsafe.Sizeof(NodeID(0)))
	)
	edges := len(n.VarNode)
	for i := range n.Nodes {
		edges += len(n.Nodes[i].Kids) + len(n.Parents[i])
	}
	b := int64(len(n.Nodes))*(nodeBytes+sliceHeader) + int64(edges)*idBytes
	for _, t := range n.Targets {
		b += sliceHeader + int64(len(t.Name))
	}
	return 2 * b
}

// KindCounts returns the number of live network nodes per node kind.
func (n *Net) KindCounts() map[string]int64 {
	var by [numKinds]int64
	for _, nd := range n.Nodes {
		by[nd.Kind]++
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
// layer's cold-request hot path, so the builder is engineered for it:
// intern keys are built into a reusable scratch buffer (a lookup allocates
// nothing), commutative ∧/∨ children are canonically sorted before lookup
// so argument order cannot defeat sharing, and child-id slices are carved
// out of chunked arenas instead of one allocation per node.
type Builder struct {
	space    *event.Space
	metric   vec.Distance
	nodes    []Node
	interned map[string]NodeID
	exprMemo map[event.Expr]NodeID
	numMemo  map[event.NumExpr]NodeID
	targets  []Target
	noFold   bool
	// keyBuf is the reusable intern-key scratch; scratch the reusable n-ary
	// flattening buffer; pair backs fixed-arity child lists during lookup.
	keyBuf  []byte
	scratch []NodeID
	pair    [2]NodeID
	// kidArena is the current chunk child slices are carved from.
	kidArena []NodeID
	// Hash-cons accounting: lookups and hits of intern, created nodes per
	// kind, canonical reorderings, arena chunks. Published to reg (when set)
	// by Build.
	lookups     int64
	hits        int64
	canon       int64
	arenaChunks int64
	kindCreated [numKinds]int64
	reg         *obs.Registry
}

// NewBuilder returns a builder over the given variable space. A nil metric
// defaults to Euclidean distance.
func NewBuilder(space *event.Space, metric vec.Distance) *Builder {
	if metric == nil {
		metric = vec.Euclidean
	}
	return &Builder{
		space:    space,
		metric:   metric,
		interned: make(map[string]NodeID),
		exprMemo: make(map[event.Expr]NodeID),
		numMemo:  make(map[event.NumExpr]NodeID),
	}
}

// kidChunkSize is the arena chunk granularity; fan-ins above a quarter chunk
// get a dedicated allocation so one giant conjunction cannot strand a chunk.
const kidChunkSize = 4096

// arenaCopy persists a (possibly scratch-backed) child list into the arena.
func (b *Builder) arenaCopy(kids []NodeID) []NodeID {
	if len(kids) == 0 {
		return nil
	}
	if len(kids) > kidChunkSize/4 {
		return slices.Clone(kids)
	}
	if len(b.kidArena)+len(kids) > cap(b.kidArena) {
		b.kidArena = make([]NodeID, 0, kidChunkSize)
		b.arenaChunks++
	}
	start := len(b.kidArena)
	b.kidArena = append(b.kidArena, kids...)
	return b.kidArena[start:len(b.kidArena):len(b.kidArena)]
}

// intern looks up the node identified by (n's payload, kids), creating it on
// a miss. kids may alias a scratch buffer: it is only read during the
// lookup, and copied into the arena when the node is new. The lookup itself
// allocates nothing — the key is built into a reusable buffer and the map
// probe uses the compiler's zero-copy string conversion.
func (b *Builder) intern(n Node, kids []NodeID) NodeID {
	n.Kids = kids
	b.keyBuf = appendInternKey(b.keyBuf[:0], n)
	b.lookups++
	if id, ok := b.interned[string(b.keyBuf)]; ok {
		b.hits++
		return id
	}
	b.kindCreated[n.Kind]++
	n.Kids = b.arenaCopy(kids)
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, n)
	b.interned[string(b.keyBuf)] = id
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
	// ArenaChunks counts the child-slice arena chunks allocated.
	ArenaChunks int64
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
		ArenaChunks:   b.arenaChunks,
		ByKind:        make(map[string]int64, numKinds),
	}
	for k, c := range b.kindCreated {
		if c > 0 {
			st.ByKind[Kind(k).String()] = c
		}
	}
	return st
}

func appendInternKey(buf []byte, n Node) []byte {
	buf = append(buf, byte(n.Kind))
	switch n.Kind {
	case KVar:
		buf = binary.AppendVarint(buf, int64(n.Var))
	case KConst:
		if n.B {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case KCmp:
		buf = append(buf, byte(n.Op))
	case KPow:
		buf = binary.AppendVarint(buf, int64(n.Exp))
	case KCondVal:
		buf = append(buf, byte(n.Val.Kind))
		switch n.Val.Kind {
		case event.Scalar:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.Val.S))
		case event.Vector:
			for _, x := range n.Val.V {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
		case event.Boolean:
			if n.Val.B {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	for _, k := range n.Kids {
		buf = binary.AppendVarint(buf, int64(k))
	}
	return buf
}

// Var returns the leaf node for variable x.
func (b *Builder) Var(x event.VarID) NodeID {
	return b.intern(Node{Kind: KVar, Var: x}, nil)
}

// Bool returns the constant node for ⊤ or ⊥.
func (b *Builder) Bool(v bool) NodeID { return b.intern(Node{Kind: KConst, B: v}, nil) }

// intern1 and intern2 intern fixed-arity nodes through the builder-held pair
// buffer, keeping the child list off the heap during lookup.
func (b *Builder) intern1(n Node, k NodeID) NodeID {
	b.pair[0] = k
	return b.intern(n, b.pair[:1])
}

func (b *Builder) intern2(n Node, l, r NodeID) NodeID {
	b.pair[0], b.pair[1] = l, r
	return b.intern(n, b.pair[:2])
}

// Not returns ¬k, simplifying constants and double negation.
func (b *Builder) Not(k NodeID) NodeID {
	switch n := b.nodes[k]; n.Kind {
	case KConst:
		return b.Bool(!n.B)
	case KNot:
		return n.Kids[0]
	}
	return b.intern1(Node{Kind: KNot}, k)
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
		n := &b.nodes[k]
		if n.Kind == KConst {
			if n.B == absorbing {
				b.scratch = flat
				return b.Bool(absorbing)
			}
			continue // neutral element dropped
		}
		if n.Kind == kind {
			// Nested chains flatten; their children are already canonical
			// but must be re-sorted against the siblings below.
			flat = append(flat, n.Kids...)
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
	return b.intern(Node{Kind: kind}, flat)
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

// constOf reports whether a numeric node is a build-time constant of the
// extended domain (a ⊗ node with a constant guard).
func (b *Builder) constOf(id NodeID) (event.Value, bool) {
	n := b.nodes[id]
	if n.Kind != KCondVal {
		return event.Value{}, false
	}
	if g := b.nodes[n.Kids[0]]; g.Kind == KConst {
		if g.B {
			return n.Val, true
		}
		return event.U, true
	}
	return event.Value{}, false
}

// Cmp returns the comparison node [l op r], folded to a Boolean constant
// when both sides are build-time constants. This partial evaluation is what
// collapses the sub-networks ranging only over certain data points (§5,
// Fig. 8).
func (b *Builder) Cmp(op event.CmpOp, l, r NodeID) NodeID {
	if !b.noFold {
		if lv, ok := b.constOf(l); ok {
			if rv, ok2 := b.constOf(r); ok2 {
				return b.Bool(event.Compare(op, lv, rv))
			}
		}
	}
	return b.intern2(Node{Kind: KCmp, Op: op}, l, r)
}

// CondVal returns guard ⊗ val for a constant value.
func (b *Builder) CondVal(guard NodeID, val event.Value) NodeID {
	return b.intern1(Node{Kind: KCondVal, Val: val}, guard)
}

// ConstNum returns the always-defined constant ⊤ ⊗ val.
func (b *Builder) ConstNum(val event.Value) NodeID { return b.CondVal(b.Bool(true), val) }

// Guard returns guard ∧ v. When v is itself a conditional constant the
// guards are merged into a single ⊗ node.
func (b *Builder) Guard(guard, v NodeID) NodeID {
	if g := b.nodes[guard]; g.Kind == KConst {
		if g.B {
			return v
		}
		return b.CondVal(b.Bool(false), event.U)
	}
	if n := b.nodes[v]; n.Kind == KCondVal {
		return b.CondVal(b.And(guard, n.Kids[0]), n.Val)
	}
	return b.intern2(Node{Kind: KGuard}, guard, v)
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
	// is not associative-commutative bit-for-bit, and evaluation must stay
	// identical to the emitted event program's.
	flat := b.scratch[:0]
	for _, k := range ks {
		if n := &b.nodes[k]; n.Kind == kind {
			flat = append(flat, n.Kids...)
			continue
		}
		flat = append(flat, k)
	}
	if kind == KSum && !b.noFold {
		folded := flat[:0]
		acc := event.U
		nConst := 0
		for _, k := range flat {
			if v, ok := b.constOf(k); ok {
				// Defined constants pre-sum; certainly-undefined terms are
				// the identity of + and drop out entirely.
				acc = event.Add(acc, v)
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
			if v, ok := b.constOf(k); ok {
				if v.IsUndef() {
					// u annihilates the whole product.
					return b.ConstNum(event.U)
				}
				acc = event.Mul(acc, v)
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
	return b.intern(Node{Kind: kind}, flat)
}

func (b *Builder) isTrueConst(id NodeID) bool {
	n := b.nodes[id]
	return n.Kind == KConst && n.B
}

// DisableConstFold turns off Σ constant folding; used by the ablation
// benchmarks and by tests that need bit-identical summation order.
func (b *Builder) DisableConstFold() { b.noFold = true }

// Inv returns k⁻¹, folding constants.
func (b *Builder) Inv(k NodeID) NodeID {
	if v, ok := b.constOf(k); ok && !b.noFold {
		return b.ConstNum(event.Inv(v))
	}
	return b.intern1(Node{Kind: KInv}, k)
}

// Pow returns k^exp, folding constants.
func (b *Builder) Pow(k NodeID, exp int) NodeID {
	if v, ok := b.constOf(k); ok && !b.noFold {
		return b.ConstNum(event.PowVal(v, exp))
	}
	return b.intern1(Node{Kind: KPow, Exp: exp}, k)
}

// Dist returns dist(l, r), folded when both endpoints are constant.
func (b *Builder) Dist(l, r NodeID) NodeID {
	if !b.noFold {
		if lv, ok := b.constOf(l); ok {
			if rv, ok2 := b.constOf(r); ok2 {
				return b.ConstNum(event.DistVal(b.metric, lv, rv))
			}
		}
	}
	return b.intern2(Node{Kind: KDist}, l, r)
}

// AddExpr compiles a Boolean event expression into the network, sharing
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
	case *event.Atom:
		id = b.Cmp(t.Op, b.AddNum(t.L), b.AddNum(t.R))
	default:
		panic("network: unknown event expression type")
	}
	b.exprMemo[e] = id
	return id
}

// AddNum compiles a c-value expression into the network.
func (b *Builder) AddNum(x event.NumExpr) NodeID {
	if id, ok := b.numMemo[x]; ok {
		return id
	}
	var id NodeID
	switch t := x.(type) {
	case *event.CondVal:
		id = b.CondVal(b.AddExpr(t.Guard), t.Val)
	case *event.GuardNum:
		id = b.Guard(b.AddExpr(t.Guard), b.AddNum(t.V))
	case *event.Sum:
		ks := make([]NodeID, len(t.Xs))
		for i, c := range t.Xs {
			ks[i] = b.AddNum(c)
		}
		id = b.Sum(ks...)
	case *event.Prod:
		ks := make([]NodeID, len(t.Xs))
		for i, c := range t.Xs {
			ks[i] = b.AddNum(c)
		}
		id = b.Prod(ks...)
	case *event.InvOf:
		id = b.Inv(b.AddNum(t.X))
	case *event.PowOf:
		id = b.Pow(b.AddNum(t.X), t.Exp)
	case *event.DistOf:
		id = b.Dist(b.AddNum(t.L), b.AddNum(t.R))
	default:
		panic("network: unknown c-value expression type")
	}
	b.numMemo[x] = id
	return id
}

// Target registers a compilation target for the given Boolean node.
func (b *Builder) Target(name string, id NodeID) {
	if !b.nodes[id].Kind.IsBool() {
		panic(fmt.Sprintf("network: target %q is not a Boolean node", name))
	}
	b.targets = append(b.targets, Target{Name: name, Node: id})
}

// Build finalises the network: when targets are registered, nodes
// unreachable from any target (construction garbage left behind by constant
// folding) are swept away; parent lists are materialised. The builder must
// not be reused afterwards.
func (b *Builder) Build() *Net {
	nodes := b.nodes
	targets := b.targets
	if len(targets) > 0 {
		nodes, targets = b.sweep()
	}
	parents := make([][]NodeID, len(nodes))
	for id, n := range nodes {
		for _, k := range n.Kids {
			parents[k] = append(parents[k], NodeID(id))
		}
	}
	varNode := make([]NodeID, b.space.Len())
	for i := range varNode {
		varNode[i] = NoNode
	}
	for id, n := range nodes {
		if n.Kind == KVar {
			varNode[n.Var] = NodeID(id)
		}
	}
	net := &Net{
		Space:   b.space,
		Metric:  b.metric,
		Nodes:   nodes,
		Parents: parents,
		Targets: targets,
		VarNode: varNode,
	}
	if b.reg != nil {
		st := b.Stats()
		b.reg.Counter("network.hashcons.lookups").Add(st.Lookups)
		b.reg.Counter("network.hashcons.hits").Add(st.Hits)
		b.reg.Counter("network.nodes.created").Add(st.Created)
		b.reg.Counter("network.nodes.live").Add(int64(len(nodes)))
		b.reg.Gauge("network.hashcons.hit_rate").Set(st.HitRate())
		b.reg.Counter("network.builder.canon_rewrites").Add(st.CanonRewrites)
		b.reg.Counter("network.builder.arena_chunks").Add(st.ArenaChunks)
		for kind, c := range net.KindCounts() {
			b.reg.Counter("network.nodes.kind." + kind).Add(c)
		}
	}
	return net
}

// sweep keeps only the nodes reachable downward from a target, preserving
// the topological id order.
func (b *Builder) sweep() ([]Node, []Target) {
	keep := make([]bool, len(b.nodes))
	var mark func(id NodeID)
	stack := make([]NodeID, 0, len(b.targets))
	mark = func(id NodeID) {
		if keep[id] {
			return
		}
		keep[id] = true
		stack = append(stack, id)
	}
	for _, t := range b.targets {
		mark(t.Node)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range b.nodes[id].Kids {
			mark(k)
		}
	}
	remap := make([]NodeID, len(b.nodes))
	nodes := make([]Node, 0, len(b.nodes))
	for id, n := range b.nodes {
		if !keep[id] {
			remap[id] = NoNode
			continue
		}
		kids := make([]NodeID, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = remap[k]
		}
		n.Kids = kids
		remap[id] = NodeID(len(nodes))
		nodes = append(nodes, n)
	}
	targets := make([]Target, len(b.targets))
	for i, t := range b.targets {
		targets[i] = Target{Name: t.Name, Node: remap[t.Node]}
	}
	return nodes, targets
}
