package prob

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"enframe/internal/event"
	"enframe/internal/network"
	"enframe/internal/vec"
)

// Decided-value kinds. vkNone marks an undecided numeric node; the other
// kinds double as the decided flag.
const (
	vkNone uint8 = iota
	vkUndef
	vkScalar
	vkVec
)

// Mask flags.
const (
	fMayU    uint8 = 1 << 0 // undefined outcome still possible
	fMayDef  uint8 = 1 << 1 // defined outcome still possible
	fBounded uint8 = 1 << 2 // lo/hi valid
)

// fstate is the compilation core: one worker's mask state under the current
// partial assignment (Algorithm 2), over a shared immutable network: the
// per-net tables (ftables), shared by all states of a compilation, plus the
// worker's own mask block (fblock). Each mask component lives in a
// contiguous slice indexed by node id over the network's structure-of-arrays
// columns:
//
//   - the three-valued truth value lives in two uint64 bit planes, decT and
//     decF (set bit = decided true / decided false, both clear = unknown),
//     so snapshots and restores are word-wide copies;
//   - valKind and flags pack into one byte (vkf: valKind in bits 0–1, flags
//     shifted up by 2);
//   - lo/hi bounds and the c1 counter are dense float64/int32 slices;
//   - the Σ-only aggregates (c2–c4, sumLo/sumHi) live in a dense side table
//     indexed through the record's aux index, so non-Σ nodes pay nothing
//     for them.
//
// The trail packs one uint64 per touched node — id, a kind-class tag, and
// the old truth bits — with small side stacks for counters, numeric
// abstracts, and Σ aggregates.
//
// The sequence of floating-point operations — the incremental Σ accounting,
// the interval-based comparison decisions, the fresh recomputation of exact
// values at decision-tree leaves — and every work counter are pinned bit for
// bit by the golden corpus in internal/difftest; a change to a derivation
// below that moves either is a reviewed regeneration of that corpus, not a
// refactoring.
type fstate struct {
	net    *network.Net
	types  []network.ValueType
	opts   Options
	bounds *boundsBook
	stats  Stats
	order  []event.VarID

	ftables
	fblock

	// curMass is Pr(ν) of the assignment being propagated.
	curMass float64

	// deadline/stopFlag/timedFlag are the runner's abort machinery, so even
	// slow single branches notice timeouts promptly.
	deadline   time.Time
	stopFlag   *atomic.Bool
	timedFlag  *atomic.Bool
	assignTick uint32
	// recording gates target-bound accumulation; it is off while a
	// distributed worker replays a job's assignment prefix (the forking
	// worker already credited targets masked within the prefix).
	recording bool
	// onAdd, when set, observes every recorded bound contribution in
	// execution order: session executors capture the add stream through it
	// so the coordinator can replay contributions in sequential DFS order,
	// and the circuit sink records target decisions. Nil otherwise.
	onAdd func(ti int, isTrue bool, p float64)
}

// ftables are the read-only per-net tables of the core. newFstate builds
// them for the pristine state; worker states of the same compilation and a
// Session's job workers share them.
type ftables struct {
	// pars is the compilation's parent index (parents.go): propagation and
	// nextVar walk it upward.
	pars parentIndex

	// targetsAt[id] is -1 or an index into targetLists.
	targetsAt   []int32
	targetLists [][]int

	// Dense per-kind derivation tables, reached through the record's aux
	// index, so the hot derives load one small record instead of walking
	// the CSR kid spans:
	//
	//   - cmpAux (KCmp) holds both kid ids and the operator;
	//   - guardAux (KGuard) holds the condition and value kid ids;
	//   - condAux (KCondVal) holds the guard kid id and the Vals index.
	//
	// cvTrue/cvUnk are per-KCondVal precomputed abstracts (indexed like
	// Net.Vals): the node's fixed c-value makes the derived mask a
	// constant for each guard state, so the hot ⊗-derivation reduces to a
	// three-way copy. cvVec marks vector-valued entries that must also
	// install the side-pool value when the guard turns true.
	cmpAux   []cmpRec
	guardAux [][2]network.NodeID
	condAux  []condRec
	cvTrue   []fnum
	cvUnk    []fnum
	cvVec    []bool

	// vecAt[id] is a vector-typed node's index into the dense vecVals
	// column, -1 for every other node.
	vecAt []int32
}

// fblock is one mask block: a worker's masks, or a job's snapshot of them
// (§4.4). Forks copy into recycled blocks, adoption frees the replaced block,
// a finished distributed compilation frees every block. The trail and queue
// ride along as capacity only; they are empty whenever a block changes hands.
type fblock struct {
	// decT/decF are the packed truth planes; ab the per-node numeric
	// abstract and propagation scratch (see nabs); sums the dense Σ
	// aggregates reached via nabs.aux.
	decT, decF bitset
	// open has a bit set for every node not yet decided — the propagation
	// loop tests it to skip parents whose update would early-return, saving
	// the call. Maintained by the commit/undo paths in lockstep with the
	// truth planes and vkf kinds.
	open bitset
	ab   []nabs
	sums []sumAgg

	// vecVals holds decided vector values, indexed through vecAt; entries
	// are only read while the owning node is decided as vkVec, so stale
	// values after undo are harmless.
	vecVals []vec.Vec

	// openTargets counts targets not yet masked under the current branch;
	// tMasked holds the same per target.
	openTargets int
	tMasked     []bool

	// level numbers assignments; nabs.trailedAt deduplicates trail entries
	// so a node repeatedly tightened within one assignment wave is recorded
	// once, with its state from the start of the wave. No trailedAt in ab
	// exceeds level, so a state adopting the block continues from it.
	level int32

	// The packed trail: one word per touched node plus side stacks popped
	// in step with the backward id walk during undo — one ntrail entry for
	// every class that carries a counter or numeric abstract, one sumAgg
	// for Σ nodes.
	trailIDs  []uint64
	trailNums []ntrail
	trailSums []sumAgg

	// queue entries carry the node's visible abstract at enqueue time — the
	// oldC parents diff against — inline, so propagation reads and writes
	// the queue sequentially instead of scattering over per-node arrays.
	queue []qent

	shape blockShape // the free list the block returns to
}

// blockShape keys the free list of mask blocks: the node count rounded up to
// 512, and the Σ, target and vector-node counts.
type blockShape struct{ nodes, sums, targets, vecs int32 }

// blockPools is the process-wide free list of released blocks, one sync.Pool
// per shape so the GC bounds what it holds. Past maxBlockShapes shapes the
// list starts over.
var blockPools = struct {
	sync.Mutex
	m map[blockShape]*sync.Pool
}{m: map[blockShape]*sync.Pool{}}

const maxBlockShapes = 64

// releaseHook, when set by tests, sees every block entering the free list.
var releaseHook atomic.Pointer[func(*fblock)]

func shapePool(sh blockShape) *sync.Pool {
	blockPools.Lock()
	defer blockPools.Unlock()
	p := blockPools.m[sh]
	if p == nil {
		if len(blockPools.m) >= maxBlockShapes {
			clear(blockPools.m)
		}
		p = new(sync.Pool)
		blockPools.m[sh] = p
	}
	return p
}

// putBlock returns a block to the free list; an empty block is dropped.
func putBlock(b *fblock) {
	if b.ab == nil {
		return
	}
	b.clearTrail()
	b.queue = b.queue[:0]
	if h := releaseHook.Load(); h != nil {
		(*h)(b)
	}
	shapePool(b.shape).Put(b)
}

// size fits the block to nn nodes and shape sh, reallocating only arrays too
// small for it, to the shape's capacity; contents are left as they are.
func (b *fblock) size(nn int, sh blockShape) {
	w, cw := bitsetWords(nn), bitsetWords(int(sh.nodes))
	b.decT, b.decF, b.open = fit(b.decT, w, cw), fit(b.decF, w, cw), fit(b.open, w, cw)
	b.ab = fit(b.ab, nn, int(sh.nodes))
	b.sums = fit(b.sums, int(sh.sums), int(sh.sums))
	b.tMasked = fit(b.tMasked, int(sh.targets), int(sh.targets))
	b.vecVals = fit(b.vecVals, int(sh.vecs), int(sh.vecs))
	b.shape = sh
}

func fit[S ~[]E, E any](s S, n, c int) S {
	if cap(s) < n {
		return make(S, n, c)
	}
	return s[:n]
}

// copyFrom overwrites the block's masks with src's and empties its trail: a
// fork's snapshot, or a Session job's reset to the pristine masks.
func (b *fblock) copyFrom(src *fblock) {
	b.size(len(src.ab), src.shape)
	copy(b.decT, src.decT)
	copy(b.decF, src.decF)
	copy(b.open, src.open)
	copy(b.ab, src.ab)
	copy(b.sums, src.sums)
	copy(b.vecVals, src.vecVals)
	copy(b.tMasked, src.tMasked)
	b.openTargets, b.level = src.openTargets, src.level
	b.clearTrail()
}

// sumAgg is the Σ-node aggregate block: counters for children that may be
// undefined (c2), may be defined (c3), and have no usable bounds (c4), plus
// the contribution sums over the bounded children.
type sumAgg struct {
	c2, c3, c4   int32
	sumLo, sumHi float64
}

// nabs is one node's packed numeric abstract plus propagation scratch,
// laid out so touching a node during propagation covers everything a commit
// reads and writes — bounds, the c1 counter, the vkf byte, the trail-class
// tag, the queued flag, the trail-dedup level, and the Σ side-table index —
// in one 32-byte record (two per cache line) instead of seven parallel
// slices and as many cache misses.
type nabs struct {
	lo, hi    float64
	cnt       int32
	trailedAt int32
	aux       int32
	vkf       uint8
	tag       uint8
	queued    bool
	kind      network.Kind
}

// fnum is one packed numeric abstract: the vkf byte and bounds.
type fnum struct {
	vkf    uint8
	lo, hi float64
}

// ntrail is one counter/numeric trail record.
type ntrail struct {
	vkf    uint8
	cnt    int32
	lo, hi float64
}

// cmpRec is one KCmp node's derivation record: both kid ids and the
// comparison operator.
type cmpRec struct {
	l, r network.NodeID
	op   event.CmpOp
}

// condRec is one KCondVal node's derivation record: the guard kid and the
// index of the node's fixed c-value in Net.Vals (and the cv* tables).
type condRec struct {
	g  network.NodeID
	vi int32
}

// qent is one propagation-queue entry: the node plus its visible abstract
// at enqueue time.
type qent struct {
	id      network.NodeID
	oldBval int8
	oldVkf  uint8
	oldLo   float64
	oldHi   float64
}

// Trail classes. The low two tag bits select which side stacks an entry
// pops on undo; tagTarget marks compilation-target nodes so the hot commit
// and undo paths can skip the targetsAt lookup for the vast majority of
// nodes that are not targets.
const (
	tagBool    uint8 = iota // truth bits only (KVar/KConst/KNot/KCmp)
	tagBoolCnt              // truth bits + c1 (KAnd/KOr)
	tagNum                  // c1 + vkf/lo/hi (guard, ⊗, opaque numerics)
	tagSum                  // tagNum + Σ aggregates

	tagClass  uint8 = 3
	tagTarget uint8 = 1 << 7
)

// newFstate builds a pristine state: the network's tables — the
// compilation's one parent index among them — and a block zeroed for
// initAll, which writes every open bit itself (a vector entry is written
// before it is read). With recycle the block comes from the free list; a
// sequential walk's is left to the GC, so a process that only traces pools
// nothing.
func newFstate(net *network.Net, types []network.ValueType, opts Options, bounds *boundsBook, recycle bool) *fstate {
	nn := net.NumNodes()
	s := &fstate{net: net, types: types, opts: opts, bounds: bounds, recording: true}
	s.pars = newParentIndex(net)
	sh := blockShape{nodes: int32(nn+511) &^ 511, targets: int32(len(net.Targets))}
	idx := make([]int32, 2*nn)
	s.targetsAt, s.vecAt = idx[:nn:nn], idx[nn:]
	var nCmp, nGuard, nCond int
	for id, k := range net.Kind {
		s.targetsAt[id], s.vecAt[id] = -1, -1
		if types[id] == network.TVector {
			s.vecAt[id] = sh.vecs
			sh.vecs++
		}
		switch k {
		case network.KCmp:
			nCmp++
		case network.KSum:
			sh.sums++
		case network.KGuard:
			nGuard++
		case network.KCondVal:
			nCond++
		}
	}
	s.cmpAux = make([]cmpRec, 0, nCmp)
	s.guardAux = make([][2]network.NodeID, 0, nGuard)
	s.condAux = make([]condRec, 0, nCond)
	if recycle {
		if b, _ := shapePool(sh).Get().(*fblock); b != nil {
			s.fblock = *b
		}
	}
	s.size(nn, sh)
	clear(s.decT)
	clear(s.decF)
	clear(s.ab)
	clear(s.sums)
	clear(s.tMasked)
	s.level, s.openTargets = 0, len(net.Targets)
	nSums := int32(0)
	for id := 0; id < nn; id++ {
		a := &s.ab[id]
		a.trailedAt = -1
		a.aux = -1
		a.kind = net.Kind[id]
		switch net.Kind[id] {
		case network.KVar, network.KConst, network.KNot:
			a.tag = tagBool
		case network.KCmp:
			a.tag = tagBool
			kids := net.KidsOf(network.NodeID(id))
			a.aux = int32(len(s.cmpAux))
			s.cmpAux = append(s.cmpAux, cmpRec{l: kids[0], r: kids[1], op: event.CmpOp(net.Arg[id])})
		case network.KAnd, network.KOr:
			a.tag = tagBoolCnt
		case network.KSum:
			a.tag = tagSum
			a.aux = nSums
			nSums++
		case network.KGuard:
			a.tag = tagNum
			kids := net.KidsOf(network.NodeID(id))
			a.aux = int32(len(s.guardAux))
			s.guardAux = append(s.guardAux, [2]network.NodeID{kids[0], kids[1]})
		case network.KCondVal:
			a.tag = tagNum
			kids := net.KidsOf(network.NodeID(id))
			a.aux = int32(len(s.condAux))
			s.condAux = append(s.condAux, condRec{g: kids[0], vi: net.Arg[id]})
		default:
			a.tag = tagNum
		}
	}
	s.cvTrue = make([]fnum, len(net.Vals))
	s.cvUnk = make([]fnum, len(net.Vals))
	s.cvVec = make([]bool, len(net.Vals))
	for vi := range net.Vals {
		val := &net.Vals[vi]
		switch val.Kind {
		case event.Undef:
			s.cvTrue[vi] = fnum{vkf: vkUndef | (fMayU|fBounded)<<2, lo: math.Inf(1), hi: math.Inf(-1)}
		case event.Scalar:
			s.cvTrue[vi] = fnum{vkf: vkScalar | (fMayDef|fBounded)<<2, lo: val.S, hi: val.S}
		case event.Vector:
			s.cvTrue[vi] = fnum{vkf: vkVec | fMayDef<<2}
			s.cvVec[vi] = true
		}
		fl := fMayU
		if !val.IsUndef() {
			fl |= fMayDef
		}
		u := fnum{}
		if val.Kind == event.Scalar {
			fl |= fBounded
			u.lo, u.hi = val.S, val.S
		}
		u.vkf = fl << 2
		s.cvUnk[vi] = u
	}
	for i, t := range net.Targets {
		s.ab[t.Node].tag |= tagTarget
		if at := s.targetsAt[t.Node]; at >= 0 {
			s.targetLists[at] = append(s.targetLists[at], i)
		} else {
			s.targetsAt[t.Node] = int32(len(s.targetLists))
			s.targetLists = append(s.targetLists, []int{i})
		}
	}
	return s
}

// sizeWalk sizes the trail and queue of a state about to walk the whole
// decision tree sequentially — a trail word and a queue entry per node, a
// counter record per node that carries a counter, an aggregate per Σ, plus
// headroom — so the walk does not regrow them from empty: measured on the
// serve-run-mixed and batch-exact nets, a walk's trail peaks at 1.0–1.2
// entries per node and its queue at 1.0–1.01 (revisits are ≈ 1 % of
// dequeues). Distributed and Session states are left to grow theirs as
// needed: their blocks return to the free list or serve as templates, and
// would carry a whole walk's trail and queue as capacity.
func (s *fstate) sizeWalk() {
	nn, counted := len(s.ab), 0
	for i := range s.ab {
		if s.ab[i].tag&tagClass != tagBool {
			counted++
		}
	}
	s.trailIDs = make([]uint64, 0, nn+nn/4)
	s.trailNums = make([]ntrail, 0, counted+counted/4)
	s.trailSums = make([]sumAgg, 0, int(s.shape.sums+s.shape.sums/4))
	s.queue = make([]qent, 0, nn+nn/16)
}

// attachRun wires the variable order and the runner's abort machinery into
// the state. deadline/stop/timed may be zero/nil outside runners.
func (s *fstate) attachRun(order []event.VarID, deadline time.Time, stop, timed *atomic.Bool) {
	s.order = order
	s.deadline = deadline
	s.stopFlag = stop
	s.timedFlag = timed
}

// trailMark/undoTo bracket one branch: undoTo restores masks bit-exactly to
// the state at the matching trailMark.
func (s *fstate) trailMark() int { return len(s.trailIDs) }

// clearTrail drops the trail without undoing (block copies, job replay).
func (b *fblock) clearTrail() {
	b.trailIDs = b.trailIDs[:0]
	b.trailNums = b.trailNums[:0]
	b.trailSums = b.trailSums[:0]
}

func (s *fstate) bval(id network.NodeID) int8       { return bval3(s.decT, s.decF, int32(id)) }
func (s *fstate) setBval(id network.NodeID, v int8) { setBval3(s.decT, s.decF, int32(id), v) }

// setScalarF finalises a node to a defined scalar value.
func (s *fstate) setScalarF(id network.NodeID, v float64) {
	s.ab[id].vkf = vkScalar | (fMayDef|fBounded)<<2
	s.ab[id].lo, s.ab[id].hi = v, v
}

// setUndefF finalises a node to u.
func (s *fstate) setUndefF(id network.NodeID) {
	s.ab[id].vkf = vkUndef | (fMayU|fBounded)<<2
	s.ab[id].lo, s.ab[id].hi = math.Inf(1), math.Inf(-1)
}

// setDecidedValueF finalises a numeric node from an extended value. The
// vector case leaves lo/hi untouched: the stale bounds take part in the
// changed-or-not comparisons of propagate, and with them in the mask-update
// counter the golden corpus pins.
func (s *fstate) setDecidedValueF(id network.NodeID, v event.Value) {
	switch v.Kind {
	case event.Undef:
		s.setUndefF(id)
	case event.Scalar:
		s.setScalarF(id, v.S)
	case event.Vector:
		s.ab[id].vkf = vkVec | fMayDef<<2
		s.vecVals[s.vecAt[id]] = v.V
	default:
		panic("prob: boolean value in numeric mask")
	}
}

// valueF reconstructs a decided node's extended value.
func (s *fstate) valueF(id network.NodeID) event.Value {
	switch s.ab[id].vkf & 3 {
	case vkUndef:
		return event.U
	case vkScalar:
		return event.Num(s.ab[id].lo)
	case vkVec:
		return event.Vect(s.vecVals[s.vecAt[id]])
	}
	panic("prob: value of undecided node")
}

// hasBoundsF reports whether a child's defined outcomes have known scalar
// bounds (decided scalars and undefs always do; decided vectors never).
func hasBoundsF(v uint8) bool {
	if vk := v & 3; vk != vkNone {
		return vk != vkVec
	}
	return v>>2&fBounded != 0
}

// sumContribF is a child's contribution interval to a Σ node: its value when
// defined, or 0 when it is u (u is the identity of +).
func sumContribF(v uint8, lo, hi float64) (float64, float64) {
	if vk := v & 3; vk != vkNone {
		if vk == vkUndef {
			return 0, 0
		}
		return lo, hi // decided scalar: lo == hi == value
	}
	if v>>2&fMayU != 0 {
		lo = math.Min(lo, 0)
		hi = math.Max(hi, 0)
	}
	return lo, hi
}

// effBoundsF returns the interval of a child's defined outcomes plus whether
// u is still possible; ok is false when no useful bounds are known.
func effBoundsF(v uint8, lo, hi float64) (float64, float64, bool, bool) {
	if vk := v & 3; vk != vkNone {
		if vk != vkScalar {
			return 0, 0, vk == vkUndef, false
		}
		return lo, hi, false, true
	}
	if fl := v >> 2; fl&fBounded != 0 && fl&fMayDef != 0 {
		return lo, hi, fl&fMayU != 0, true
	}
	return 0, 0, true, false
}

// sumAccF adds (sign=+1) or removes (sign=-1) a child abstract (cv/clo/chi)
// from a Σ node's aggregates. Contribution sums cover exactly the children
// with usable bounds; when the last unbounded child gains bounds the sums are
// automatically complete.
func (s *fstate) sumAccF(id network.NodeID, agg *sumAgg, cv uint8, clo, chi float64, sign int32) {
	if cv&3 == vkNone {
		s.ab[id].cnt += sign
	}
	fl := cv >> 2
	if fl&fMayU != 0 {
		agg.c2 += sign
	}
	if fl&fMayDef != 0 {
		agg.c3 += sign
	}
	if !hasBoundsF(cv) {
		agg.c4 += sign
	} else {
		lo, hi := sumContribF(cv, clo, chi)
		agg.sumLo += float64(sign) * lo
		agg.sumHi += float64(sign) * hi
	}
}

// deriveSumF refreshes a Σ node's visible abstract from its aggregates, in
// place.
func (s *fstate) deriveSumF(id network.NodeID, agg *sumAgg) {
	kids := s.net.KidsOf(id)
	n := int32(len(kids))
	if s.ab[id].cnt == 0 {
		// All children decided: recompute the exact value freshly in child
		// order so leaves match the reference evaluation bit-for-bit.
		if s.types[id] == network.TVector {
			v := event.U
			for _, k := range kids {
				v = event.Add(v, s.valueF(k))
			}
			s.setDecidedValueF(id, v)
			return
		}
		sum := 0.0
		defined := false
		for _, k := range kids {
			if s.ab[k].vkf&3 == vkUndef {
				continue
			}
			sum += s.ab[k].lo
			defined = true
		}
		if defined {
			s.setScalarF(id, sum)
		} else {
			s.setUndefF(id)
		}
		return
	}
	var fl uint8
	if agg.c2 == n {
		fl |= fMayU
	}
	if agg.c3 > 0 {
		fl |= fMayDef
	}
	if s.types[id] == network.TScalar && agg.c4 == 0 {
		fl |= fBounded
		s.ab[id].lo, s.ab[id].hi = agg.sumLo, agg.sumHi
	} else {
		s.ab[id].lo, s.ab[id].hi = 0, 0
	}
	s.ab[id].vkf = fl << 2
}

// deriveOpaqueF handles KProd, KInv, KPow, KDist: these decide when all
// children are decided (the value is then recomputed exactly), decide to u
// early when any child is certainly undefined (u annihilates · and dist), and
// otherwise stay conservatively unknown.
func (s *fstate) deriveOpaqueF(id network.NodeID) {
	kids := s.net.KidsOf(id)
	for _, k := range kids {
		if s.ab[k].vkf&3 == vkUndef {
			s.setUndefF(id)
			return
		}
	}
	if s.ab[id].cnt == 0 {
		s.setDecidedValueF(id, s.evalOpaqueF(id))
		return
	}
	s.ab[id].vkf = (fMayU | fMayDef) << 2
	s.ab[id].lo, s.ab[id].hi = 0, 0
}

// evalOpaqueF computes the exact value of a fully decided KProd, KInv, KPow,
// or KDist node from its children's decided values.
func (s *fstate) evalOpaqueF(id network.NodeID) event.Value {
	kids := s.net.KidsOf(id)
	switch s.net.Kind[id] {
	case network.KProd:
		v := event.Num(1)
		for _, k := range kids {
			v = event.Mul(v, s.valueF(k))
		}
		return v
	case network.KInv:
		return event.Inv(s.valueF(kids[0]))
	case network.KPow:
		return event.PowVal(s.valueF(kids[0]), int(s.net.Arg[id]))
	case network.KDist:
		return event.DistVal(s.net.Metric, s.valueF(kids[0]), s.valueF(kids[1]))
	}
	panic("prob: evalOpaque on non-opaque node")
}

// deriveCondValF refreshes guard ⊗ val from the guard's truth value. The
// node's c-value is fixed, so the derived abstract for each guard state was
// precomputed in newFstate; each branch fully writes vkf/lo/hi (non-scalar
// precomputes carry zero lo/hi, so a vector value leaves zeroed bounds).
func (s *fstate) deriveCondValF(id network.NodeID) {
	c := s.condAux[s.ab[id].aux]
	vi := c.vi
	switch s.bval(c.g) {
	case bTrue:
		f := &s.cvTrue[vi]
		s.ab[id].vkf, s.ab[id].lo, s.ab[id].hi = f.vkf, f.lo, f.hi
		if s.cvVec[vi] {
			s.vecVals[s.vecAt[id]] = s.net.Vals[vi].V
		}
	case bFalse:
		s.setUndefF(id)
	default:
		f := &s.cvUnk[vi]
		s.ab[id].vkf, s.ab[id].lo, s.ab[id].hi = f.vkf, f.lo, f.hi
	}
}

// deriveGuardF refreshes guard ∧ v from the guard's truth value and the value
// child's abstract. The caller zeroes vkf/lo/hi first: the unknown-guard
// branch writes bounds only when the child has them.
func (s *fstate) deriveGuardF(id network.NodeID) {
	ga := s.guardAux[s.ab[id].aux]
	g := s.bval(ga[0])
	vk := ga[1]
	vv := s.ab[vk].vkf
	switch g {
	case bFalse:
		s.setUndefF(id)
	case bTrue:
		if vv&3 != vkNone {
			s.ab[id].vkf = vv
			s.ab[id].lo, s.ab[id].hi = s.ab[vk].lo, s.ab[vk].hi
			if vv&3 == vkVec {
				s.vecVals[s.vecAt[id]] = s.vecVals[s.vecAt[vk]]
			}
			return
		}
		s.ab[id].vkf = vv & (7 << 2)
		s.ab[id].lo, s.ab[id].hi = s.ab[vk].lo, s.ab[vk].hi
	default:
		fl := fMayU
		if vv>>2&fMayDef != 0 {
			fl |= fMayDef
		}
		if lo, hi, _, ok := effBoundsF(vv, s.ab[vk].lo, s.ab[vk].hi); ok {
			fl |= fBounded
			s.ab[id].lo, s.ab[id].hi = lo, hi
		}
		s.ab[id].vkf = fl << 2
	}
}

// slack is the safety margin for deciding comparisons from interval bounds:
// a comparison is decided early only when the intervals are separated by
// more than slack, which keeps incremental floating-point bookkeeping from
// ever deciding a near-tie wrongly. Exact values at decision-tree leaves are
// recomputed freshly, so ties are always resolved exactly.
const slack = 1e-9

// deriveCmpF decides a comparison atom from its children's abstracts: exact
// when both sides are decided, true when either side is certainly undefined
// (§3.2: comparisons involving u hold), and early from interval separation
// with the safety slack otherwise.
func (s *fstate) deriveCmpF(id network.NodeID) int8 {
	c := &s.cmpAux[s.ab[id].aux]
	la, ra := &s.ab[c.l], &s.ab[c.r]
	lv, rv := la.vkf, ra.vkf
	if lv&3 == vkUndef || rv&3 == vkUndef {
		return bTrue
	}
	op := c.op
	if lv&3 == vkScalar && rv&3 == vkScalar {
		return boolMask(op.Holds(la.lo, ra.lo))
	}
	llo, lhi, lMayU, lok := effBoundsF(lv, la.lo, la.hi)
	rlo, rhi, rMayU, rok := effBoundsF(rv, ra.lo, ra.hi)
	if !lok || !rok {
		return bUnknown
	}
	// True when every defined combination satisfies the operator
	// (undefined combinations are true regardless).
	switch op {
	case event.LE, event.LT:
		if lhi <= rlo-slack {
			return bTrue
		}
	case event.GE, event.GT:
		if llo >= rhi+slack {
			return bTrue
		}
	}
	// False requires both sides certainly defined and the operator
	// certainly violated.
	if !lMayU && !rMayU {
		switch op {
		case event.LE, event.LT:
			if llo >= rhi+slack {
				return bFalse
			}
		case event.GE, event.GT:
			if lhi <= rlo-slack {
				return bFalse
			}
		case event.EQ:
			if llo >= rhi+slack || rlo >= lhi+slack {
				return bFalse
			}
		}
	}
	return bUnknown
}

// initAll computes the initial mask of every node bottom-up (node ids are
// topologically ordered). It must run before the first assignment; targets
// decided by the initial pass alone are recorded with the full unit mass.
func (s *fstate) initAll() {
	for id := network.NodeID(0); int(id) < len(s.net.Kind); id++ {
		s.initNodeF(id)
		a := &s.ab[id]
		if a.tag&tagClass <= tagBoolCnt {
			s.open.setTo(int32(id), s.bval(id) == bUnknown)
		} else {
			s.open.setTo(int32(id), a.vkf&3 == vkNone)
		}
		s.stats.MaskUpdates++
		if at := s.targetsAt[id]; at >= 0 {
			if v := s.bval(id); v != bUnknown {
				tis := s.targetLists[at]
				s.openTargets -= len(tis)
				for _, ti := range tis {
					s.tMasked[ti] = true
					if s.recording {
						s.bounds.add(ti, v == bTrue, 1)
						if s.onAdd != nil {
							s.onAdd(ti, v == bTrue, 1)
						}
					}
				}
			}
		}
	}
}

// initNodeF derives a node's mask from its children's current masks. Used by
// the initial pass; propagate keeps masks incrementally in sync afterwards.
func (s *fstate) initNodeF(id network.NodeID) {
	kids := s.net.KidsOf(id)
	switch s.net.Kind[id] {
	case network.KVar:
	case network.KConst:
		s.setBval(id, boolMask(s.net.Arg[id] != 0))
	case network.KNot:
		if c := s.bval(kids[0]); c != bUnknown {
			s.setBval(id, negMask(c))
		}
	case network.KAnd:
		v := bUnknown
		c1 := int32(0)
		for _, k := range kids {
			switch s.bval(k) {
			case bFalse:
				v = bFalse
			case bTrue:
				c1++
			}
		}
		if v == bUnknown && int(c1) == len(kids) {
			v = bTrue
		}
		s.ab[id].cnt = int32(len(kids)) - c1
		if v != bUnknown {
			s.setBval(id, v)
		}
	case network.KOr:
		v := bUnknown
		c1 := int32(0)
		for _, k := range kids {
			switch s.bval(k) {
			case bTrue:
				v = bTrue
			case bFalse:
				c1++
			}
		}
		if v == bUnknown && int(c1) == len(kids) {
			v = bFalse
		}
		s.ab[id].cnt = int32(len(kids)) - c1
		if v != bUnknown {
			s.setBval(id, v)
		}
	case network.KCmp:
		if v := s.deriveCmpF(id); v != bUnknown {
			s.setBval(id, v)
		}
	case network.KCondVal:
		s.deriveCondValF(id)
	case network.KGuard:
		s.deriveGuardF(id)
	case network.KSum:
		agg := &s.sums[s.ab[id].aux]
		for _, k := range kids {
			s.sumAccF(id, agg, s.ab[k].vkf, s.ab[k].lo, s.ab[k].hi, +1)
		}
		s.deriveSumF(id, agg)
	case network.KProd, network.KInv, network.KPow, network.KDist:
		for _, k := range kids {
			if s.ab[k].vkf&3 == vkNone {
				s.ab[id].cnt++
			}
		}
		s.deriveOpaqueF(id)
	}
}

// commitDecide finishes the decision of a counterless Boolean node (KVar,
// KNot, KCmp): such nodes commit at most once per wave — deciding clears
// their open bit — and always from the unknown state, so there is no trail
// dedup to check and no old truth bits to record. The trail word carries the
// node's target flag (bit 36) so undo consults the target tables only for
// actual targets.
func (s *fstate) commitDecide(id network.NodeID, a *nabs, newV int8) {
	tg := a.tag
	a.trailedAt = s.level
	w := uint64(uint32(id)) | uint64(tagBool)<<32
	if tg&tagTarget != 0 {
		w |= 1 << 36
	}
	s.trailIDs = append(s.trailIDs, w)
	s.stats.MaskUpdates++
	s.open.clear(int32(id))
	if tg&tagTarget != 0 {
		s.maskTargets(id, newV)
	}
	if !a.queued {
		a.queued = true
		s.queue = append(s.queue, qent{id: id, oldBval: bUnknown})
	}
}

// commitBoolCnt finishes a KAnd/KOr update — a counter move and possibly a
// decision; the caller already wrote the new truth bits and counter and
// passes the prior counter.
func (s *fstate) commitBoolCnt(id network.NodeID, a *nabs, oldCnt int32, newV int8) {
	tg := a.tag
	if a.trailedAt != s.level {
		a.trailedAt = s.level
		w := uint64(uint32(id)) | uint64(tagBoolCnt)<<32
		if tg&tagTarget != 0 {
			w |= 1 << 36
		}
		s.trailIDs = append(s.trailIDs, w)
		s.trailNums = append(s.trailNums, ntrail{cnt: oldCnt})
	}
	s.stats.MaskUpdates++
	if newV == bUnknown {
		return // only the counter moved; nothing visible changed
	}
	s.open.clear(int32(id))
	if tg&tagTarget != 0 {
		s.maskTargets(id, newV)
	}
	if !a.queued {
		a.queued = true
		s.queue = append(s.queue, qent{id: id, oldBval: bUnknown})
	}
}

// maskTargets masks the compilation targets rooted at a node that just
// decided, accumulating the branch mass into their bounds.
func (s *fstate) maskTargets(id network.NodeID, newV int8) {
	tis := s.targetLists[s.targetsAt[id]]
	s.openTargets -= len(tis)
	for _, ti := range tis {
		s.tMasked[ti] = true
		if s.recording {
			s.bounds.add(ti, newV == bTrue, s.curMass)
			if s.onAdd != nil {
				s.onAdd(ti, newV == bTrue, s.curMass)
			}
		}
	}
}

// commitNum finishes a numeric-node update: the caller already wrote the new
// abstract into the arrays and passes the prior values. Numeric nodes are
// never Boolean compilation targets, so no target bookkeeping here.
func (s *fstate) commitNum(id network.NodeID, a *nabs, oldVkf uint8, oldLo, oldHi float64, oldCnt int32, oldAgg *sumAgg) {
	if a.trailedAt != s.level {
		a.trailedAt = s.level
		tg := a.tag & tagClass
		s.trailIDs = append(s.trailIDs, uint64(uint32(id))|uint64(tg)<<32)
		s.trailNums = append(s.trailNums, ntrail{vkf: oldVkf, cnt: oldCnt, lo: oldLo, hi: oldHi})
		if tg == tagSum {
			s.trailSums = append(s.trailSums, *oldAgg)
		}
	}
	s.stats.MaskUpdates++
	if a.vkf == oldVkf && a.lo == oldLo && a.hi == oldHi {
		return // only counters/sums moved; nothing visible changed
	}
	if a.vkf&3 != vkNone {
		s.open.clear(int32(id))
	}
	if !a.queued {
		a.queued = true
		s.queue = append(s.queue, qent{id: id, oldBval: bUnknown, oldVkf: oldVkf, oldLo: oldLo, oldHi: oldHi})
	}
}

// assign pushes the valuation x ↦ v with branch mass p into the network and
// propagates masks upward (Algorithm 2).
func (s *fstate) assign(x event.VarID, v bool, p float64) {
	s.stats.Assignments++
	s.assignTick++
	if s.assignTick&15 == 0 && !s.deadline.IsZero() && time.Now().After(s.deadline) {
		s.timedFlag.Store(true)
		s.stopFlag.Store(true)
	}
	s.curMass = p
	s.level++
	id := s.net.VarNode[x]
	if id == network.NoNode {
		return
	}
	s.setBval(id, boolMask(v))
	s.commitDecide(id, &s.ab[id], boolMask(v))
	s.propagate()
}

// propagate drains the work queue, updating parents of changed nodes — the
// inner switch is the former updateParent, fused into the loop so the ~1M
// parent-edge visits of a large compile pay no call overhead and the queue
// entry stays in registers. The child's current abstract is loaded once per
// dequeue, not once per parent: parent updates only ever mutate higher node
// ids (the network is topologically ordered), so it cannot change inside
// the loop. Parents are filtered through the open plane, which holds "not
// yet decided" exactly (see commitDecide/commitBoolCnt/commitNum/undoTo): a
// decided parent never updates again on this branch. Each case commits —
// and counts a mask update — only when some component of the parent's mask
// changed, counters and Σ aggregates included.
func (s *fstate) propagate() {
	for i := 0; i < len(s.queue); i++ {
		e := s.queue[i] // by value: commits may grow (reallocate) the queue
		s.ab[e.id].queued = false
		var cv int8
		var cvkf uint8
		var clo, chi float64
		if s.ab[e.id].tag&tagClass <= tagBoolCnt {
			cv = s.bval(e.id)
		} else {
			cvkf, clo, chi = s.ab[e.id].vkf, s.ab[e.id].lo, s.ab[e.id].hi
		}
		for _, pid := range s.pars.of(e.id) {
			if !s.open.get(int32(pid)) {
				continue // already decided; the trail restores consistently
			}
			a := &s.ab[pid]
			switch a.kind {
			case network.KNot:
				nv := negMask(cv)
				if nv == bUnknown {
					continue
				}
				s.setBval(pid, nv)
				s.commitDecide(pid, a, nv)
			case network.KAnd:
				// cnt counts down the kids still missing a true value, so
				// the all-true decision is a zero test with no fan-in
				// lookup.
				if cv == bFalse {
					s.setBval(pid, bFalse)
					s.commitBoolCnt(pid, a, a.cnt, bFalse)
				} else if cv == bTrue && e.oldBval != bTrue {
					oldCnt := a.cnt
					a.cnt--
					nv := bUnknown
					if a.cnt == 0 {
						nv = bTrue
						s.setBval(pid, bTrue)
					}
					s.commitBoolCnt(pid, a, oldCnt, nv)
				}
			case network.KOr:
				if cv == bTrue {
					s.setBval(pid, bTrue)
					s.commitBoolCnt(pid, a, a.cnt, bTrue)
				} else if cv == bFalse && e.oldBval != bFalse {
					oldCnt := a.cnt
					a.cnt--
					nv := bUnknown
					if a.cnt == 0 {
						nv = bFalse
						s.setBval(pid, bFalse)
					}
					s.commitBoolCnt(pid, a, oldCnt, nv)
				}
			case network.KCmp:
				nv := s.deriveCmpF(pid)
				if nv == bUnknown {
					continue
				}
				s.setBval(pid, nv)
				s.commitDecide(pid, a, nv)
			case network.KCondVal:
				oldV, oldL, oldH := a.vkf, a.lo, a.hi
				s.deriveCondValF(pid)
				if a.vkf == oldV && a.lo == oldL && a.hi == oldH {
					continue
				}
				s.commitNum(pid, a, oldV, oldL, oldH, 0, nil)
			case network.KGuard:
				oldV, oldL, oldH := a.vkf, a.lo, a.hi
				a.vkf, a.lo, a.hi = 0, 0, 0
				s.deriveGuardF(pid)
				if a.vkf == oldV && a.lo == oldL && a.hi == oldH {
					continue
				}
				s.commitNum(pid, a, oldV, oldL, oldH, 0, nil)
			case network.KSum:
				oldV, oldL, oldH := a.vkf, a.lo, a.hi
				agg := &s.sums[a.aux]
				oldAgg := *agg
				oldCnt := a.cnt
				s.sumAccF(pid, agg, e.oldVkf, e.oldLo, e.oldHi, -1)
				s.sumAccF(pid, agg, cvkf, clo, chi, +1)
				s.deriveSumF(pid, agg)
				if a.vkf == oldV && a.lo == oldL && a.hi == oldH &&
					a.cnt == oldCnt && *agg == oldAgg {
					continue
				}
				s.commitNum(pid, a, oldV, oldL, oldH, oldCnt, &oldAgg)
			case network.KProd, network.KInv, network.KPow, network.KDist:
				oldV, oldL, oldH := a.vkf, a.lo, a.hi
				oldCnt := a.cnt
				if (e.oldVkf&3 != vkNone) != (cvkf&3 != vkNone) {
					a.cnt--
				}
				s.deriveOpaqueF(pid)
				if a.vkf == oldV && a.lo == oldL && a.hi == oldH &&
					a.cnt == oldCnt {
					continue
				}
				s.commitNum(pid, a, oldV, oldL, oldH, oldCnt, nil)
			}
		}
	}
	s.queue = s.queue[:0]
}

// undoTo backtracks the trail to a saved mark, restoring masks bit-exactly
// and reopening targets that were masked past the mark. Side stacks pop in
// step with the backward id walk.
func (s *fstate) undoTo(mark int) {
	nn, ns := len(s.trailNums), len(s.trailSums)
	for i := len(s.trailIDs) - 1; i >= mark; i-- {
		w := s.trailIDs[i]
		id := network.NodeID(uint32(w))
		tg := uint8(w >> 32 & 3)
		switch tg {
		case tagBool, tagBoolCnt:
			oldT := w&(1<<34) != 0
			oldF := w&(1<<35) != 0
			if w&(1<<36) != 0 && !oldT && !oldF &&
				s.bval(id) != bUnknown {
				tis := s.targetLists[s.targetsAt[id]]
				s.openTargets += len(tis)
				for _, ti := range tis {
					s.tMasked[ti] = false
				}
			}
			s.decT.setTo(int32(id), oldT)
			s.decF.setTo(int32(id), oldF)
			s.open.setTo(int32(id), !oldT && !oldF)
			if tg == tagBoolCnt {
				nn--
				s.ab[id].cnt = s.trailNums[nn].cnt
			}
		case tagSum:
			ns--
			s.sums[s.ab[id].aux] = s.trailSums[ns]
			nn--
			f := &s.trailNums[nn]
			s.ab[id].vkf, s.ab[id].cnt, s.ab[id].lo, s.ab[id].hi = f.vkf, f.cnt, f.lo, f.hi
			s.open.setTo(int32(id), f.vkf&3 == vkNone)
		case tagNum:
			nn--
			f := &s.trailNums[nn]
			s.ab[id].vkf, s.ab[id].cnt, s.ab[id].lo, s.ab[id].hi = f.vkf, f.cnt, f.lo, f.hi
			s.open.setTo(int32(id), f.vkf&3 == vkNone)
		}
	}
	s.trailIDs = s.trailIDs[:mark]
	s.trailNums = s.trailNums[:nn]
	s.trailSums = s.trailSums[:ns]
}

// nextVar returns the next influential unassigned variable at or after
// order position oi. Variables whose direct uses are all masked cannot
// change any event and are skipped (their mass marginalises out).
func (s *fstate) nextVar(oi int) (int, event.VarID, bool) {
	for ; oi < len(s.order); oi++ {
		x := s.order[oi]
		id := s.net.VarNode[x]
		if s.bval(id) != bUnknown {
			continue // assigned on this branch
		}
		if s.targetsAt[id] >= 0 {
			return oi, x, true // the leaf itself is a compilation target
		}
		for _, pid := range s.pars.of(id) {
			if s.net.Kind[pid].IsBool() {
				if s.bval(pid) == bUnknown {
					return oi, x, true
				}
			} else if s.ab[pid].vkf&3 == vkNone {
				return oi, x, true
			}
		}
	}
	return oi, -1, false
}

// allSettled reports the termination condition of Algorithm 1: every target
// masked on this branch or already within 2ε globally.
func (s *fstate) allSettled() bool {
	if s.openTargets == 0 {
		return true
	}
	if s.bounds.allTight() {
		return true
	}
	if s.bounds.eps2 == 0 {
		return false // exact: tight only at full convergence
	}
	nTight := int64(len(s.tMasked)) - s.bounds.nLoose.Load()
	if int64(s.openTargets) > nTight {
		return false // pigeonhole: some target is neither masked nor tight
	}
	return s.bounds.settledWith(s.tMasked)
}

// worker returns a state over the pristine state p's network and tables and
// the given bounds book. It holds no masks until it adopts a job's block
// (adoptSnap) or copies the pristine masks (copyFrom).
func (p *fstate) worker(bounds *boundsBook) *fstate {
	return &fstate{net: p.net, types: p.types, opts: p.opts, bounds: bounds, ftables: p.ftables, recording: true}
}

// forkSnap copies the current masks into a recycled block, shippable as a
// job's snapshot.
func (s *fstate) forkSnap() *fblock {
	b, _ := shapePool(s.shape).Get().(*fblock)
	if b == nil {
		b = new(fblock)
	}
	b.copyFrom(&s.fblock)
	return b
}

// takeBlock hands the state's block to the caller — the root job takes the
// pristine state's — leaving the state without masks.
func (s *fstate) takeBlock() *fblock {
	b := new(fblock)
	*b, s.fblock = s.fblock, fblock{}
	return b
}

// release returns the state's block to the free list at the end of a
// compilation.
func (s *fstate) release() { putBlock(s.takeBlock()) }

// adoptSnap installs a job's block as the state's masks and returns the
// block it replaces to the free list.
func (s *fstate) adoptSnap(b *fblock) {
	s.fblock, *b = *b, s.fblock
	putBlock(b)
}
