// Package gen generates random well-typed user programs together with
// random probabilistic input data, for the differential verification harness
// of internal/difftest. Every program is derived deterministically from one
// int64 seed, so any failing case reproduces from its printed seed, and
// programs decompose into independent blocks that the harness can drop one
// at a time to shrink a failure.
//
// The generated fragment is chosen so that all three evaluation paths
// (per-world interpreter, the built network evaluated per world, compiled
// network) are bit-for-bit comparable: data points sit on a small integer
// grid, the metric is the squared Euclidean distance, the language fragment
// has no invert() and no float literals, and every numeric expression carries a
// static magnitude bound kept below 2^53. All intermediate values are then
// exact integers (or the undefined value u), so sums and products agree
// exactly regardless of association order, and comparison ties resolve
// identically in every path.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"enframe/internal/event"
	"enframe/internal/lineage"
	"enframe/internal/vec"
)

// maxMag bounds the magnitude of every generated numeric expression; well
// below 2^53, so integer arithmetic stays exact in float64.
const maxMag = 1e9

// Input is the external data a generated program runs over.
type Input struct {
	Objects     []lineage.Object
	Space       *event.Space
	Params      []int // k, iter
	InitIndices []int
	Metric      vec.Distance
}

// Sym names one flattened program variable cell (e.g. "A0[1]") whose final
// value the harness checks in every world.
type Sym struct {
	Name   string
	IsBool bool
}

// Block is one independent group of statements; shrinking drops blocks.
type Block struct {
	Lines []string
	Syms  []Sym
}

// Program is a generated user program plus its input data.
type Program struct {
	Seed    int64
	Prelude []string
	Blocks  []Block
	Input   Input
}

// Source renders the program as user-language text.
func (p *Program) Source() string {
	var b strings.Builder
	for _, l := range p.Prelude {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, blk := range p.Blocks {
		for _, l := range blk.Lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Syms returns the checked symbols of all blocks, deduplicated by name.
func (p *Program) Syms() []Sym {
	var out []Sym
	seen := map[string]bool{}
	for _, blk := range p.Blocks {
		for _, s := range blk.Syms {
			if !seen[s.Name] {
				seen[s.Name] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// WithoutBlock returns a copy of the program with block i removed; the
// input data is shared. Used by the shrinker.
func (p *Program) WithoutBlock(i int) *Program {
	blocks := make([]Block, 0, len(p.Blocks)-1)
	blocks = append(blocks, p.Blocks[:i]...)
	blocks = append(blocks, p.Blocks[i+1:]...)
	return &Program{Seed: p.Seed, Prelude: p.Prelude, Blocks: blocks, Input: p.Input}
}

// New generates the program of the given seed. Generation is total: every
// int64 produces a valid program.
func New(seed int64) *Program {
	rng := rand.New(rand.NewSource(seed))
	in := newInput(rng)
	g := &gens{
		rng:   rng,
		in:    in,
		nObj:  len(in.Objects),
		k:     in.Params[0],
		iter:  in.Params[1],
		names: map[string]*vinfo{},
		cnt:   map[string]int{},
	}
	p := &Program{
		Seed: seed,
		Prelude: []string{
			"(O, n) = loadData()",
			"(k, iter) = loadParams()",
			"M = init()",
		},
		Input: in,
	}
	nBlocks := 1 + rng.Intn(4)
	for b := 0; b < nBlocks; b++ {
		p.Blocks = append(p.Blocks, g.block())
	}
	p.Blocks = append(p.Blocks, g.anchorBlock())
	return p
}

// newInput draws the data points, correlation scheme, and clustering
// parameters. The variable space is kept small enough for brute-force world
// enumeration (at most 2^9 worlds).
func newInput(rng *rand.Rand) Input {
	nObj := 3 + rng.Intn(5) // 3..7
	pts := make([]vec.Vec, nObj)
	for i := range pts {
		pts[i] = vec.New(float64(rng.Intn(13)), float64(rng.Intn(13)))
	}
	scheme := lineage.Scheme(rng.Intn(4))
	groupSize := 1 + rng.Intn(3)
	if scheme == lineage.Conditional {
		groupSize = 2 + rng.Intn(2) // bound fresh variables: 2 per group
	}
	cfg := lineage.Config{
		Scheme:          scheme,
		GroupSize:       groupSize,
		NumVars:         2 + rng.Intn(3),
		L:               1 + rng.Intn(2),
		M:               2 + rng.Intn(2),
		CertainFraction: []float64{0, 0, 0.3, 0.5}[rng.Intn(4)],
		Seed:            rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		cfg.ProbLow, cfg.ProbHigh = 0.25, 0.85
	}
	objs, space, err := lineage.Attach(pts, cfg)
	if err != nil || space.Len() > 9 {
		// Deterministic fallback keeps generation total.
		objs, space, err = lineage.Attach(pts, lineage.Config{
			Scheme: lineage.Independent, GroupSize: 2, Seed: cfg.Seed,
		})
		if err != nil {
			panic(fmt.Sprintf("gen: fallback lineage failed: %v", err))
		}
	}
	k := 2
	if nObj > 2 && rng.Intn(2) == 0 {
		k = 3
	}
	init := rng.Perm(nObj)[:k]
	return Input{
		Objects:     objs,
		Space:       space,
		Params:      []int{k, 1 + rng.Intn(2)},
		InitIndices: init,
		Metric:      vec.SquaredEuclidean,
	}
}

// vkind is the value kind of a generated program variable.
type vkind uint8

const (
	kNum vkind = iota
	kBool
	kVec
)

// vinfo tracks a defined program variable: its kind, array dimensions (nil
// for scalars), and the static magnitude bound of its numeric cells.
type vinfo struct {
	name  string
	kind  vkind
	dims  []int
	bound float64
}

type loopInfo struct {
	name string
	n    int // exclusive upper bound; the variable ranges over [0, n)
}

// gens is the generator state for one program.
type gens struct {
	rng           *rand.Rand
	in            Input
	nObj, k, iter int

	vars  []*vinfo // definition order, for deterministic choice
	names map[string]*vinfo
	loops []loopInfo
	cnt   map[string]int

	lines  []string
	indent int
	syms   []Sym
	// selfContained blocks read only prelude data (O, M, params), so the
	// shrinker can drop earlier blocks without breaking them.
	selfContained bool
	blockStart    int
}

func (g *gens) fresh(prefix string) string {
	n := g.cnt[prefix]
	g.cnt[prefix]++
	return fmt.Sprintf("%s%d", prefix, n)
}

func (g *gens) emit(format string, args ...any) {
	g.lines = append(g.lines, strings.Repeat("    ", g.indent)+fmt.Sprintf(format, args...))
}

func (g *gens) define(v *vinfo) {
	g.vars = append(g.vars, v)
	g.names[v.name] = v
	g.addSyms(v)
}

func (g *gens) addSyms(v *vinfo) {
	isBool := v.kind == kBool
	switch len(v.dims) {
	case 0:
		g.syms = append(g.syms, Sym{Name: v.name, IsBool: isBool})
	case 1:
		for i := 0; i < v.dims[0]; i++ {
			g.syms = append(g.syms, Sym{Name: fmt.Sprintf("%s[%d]", v.name, i), IsBool: isBool})
		}
	case 2:
		for i := 0; i < v.dims[0]; i++ {
			for j := 0; j < v.dims[1]; j++ {
				g.syms = append(g.syms, Sym{Name: fmt.Sprintf("%s[%d][%d]", v.name, i, j), IsBool: isBool})
			}
		}
	}
}

// readable reports whether the variable may be referenced by the current
// block: self-contained blocks only read variables they defined themselves.
func (g *gens) readable(i int) bool {
	return !g.selfContained || i >= g.blockStart
}

// pick returns a random readable variable satisfying want, or nil.
func (g *gens) pick(want func(*vinfo) bool) *vinfo {
	var cands []*vinfo
	for i, v := range g.vars {
		if g.readable(i) && want(v) {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[g.rng.Intn(len(cands))]
}

// idx renders an index expression valid for an array dimension of size dim:
// a loop variable whose range fits inside the dimension, or a literal.
func (g *gens) idx(dim int) string {
	var fits []loopInfo
	for _, l := range g.loops {
		if l.n <= dim {
			fits = append(fits, l)
		}
	}
	if len(fits) > 0 && g.rng.Intn(4) != 0 {
		return fits[g.rng.Intn(len(fits))].name
	}
	return fmt.Sprintf("%d", g.rng.Intn(dim))
}

// nx is a generated numeric expression: source text plus a static magnitude
// bound. Values are nonnegative exact integers or the undefined value u.
type nx struct {
	src   string
	bound float64
}

// bx is a generated Boolean expression.
type bx struct {
	src string
}

// vx is a generated vector expression with a per-coordinate magnitude bound.
type vx struct {
	src   string
	coord float64
}

// dimName renders a loop bound: the literal, or its parameter name when the
// value happens to match n or k (exercising symbolic range bounds).
func (g *gens) dimName(d int) string {
	if d == g.nObj && g.rng.Intn(2) == 0 {
		return "n"
	}
	if d == g.k && g.rng.Intn(2) == 0 {
		return "k"
	}
	return fmt.Sprintf("%d", d)
}

// vecAtom produces a vector-valued expression: a data point, a medoid, a
// vector variable cell, or a small integer scaling of one of those.
func (g *gens) vecAtom() vx {
	var base vx
	switch g.rng.Intn(3) {
	case 0:
		base = vx{src: fmt.Sprintf("O[%s]", g.idx(g.nObj)), coord: 12}
	case 1:
		base = vx{src: fmt.Sprintf("M[%s]", g.idx(g.k)), coord: 12}
	default:
		if v := g.pick(func(v *vinfo) bool { return v.kind == kVec && len(v.dims) == 1 }); v != nil {
			base = vx{src: fmt.Sprintf("%s[%s]", v.name, g.idx(v.dims[0])), coord: v.bound}
		} else {
			base = vx{src: fmt.Sprintf("O[%s]", g.idx(g.nObj)), coord: 12}
		}
	}
	if g.rng.Intn(5) == 0 && base.coord <= 1000 {
		c := 1 + g.rng.Intn(3)
		return vx{src: fmt.Sprintf("scalar_mult(%d, %s)", c, base.src), coord: float64(c) * base.coord}
	}
	return base
}

// dist produces a squared-distance atom; for d-dimensional integer points
// with per-coordinate bound c the result is an integer at most d·(2c)².
func (g *gens) distAtom() nx {
	a, b := g.vecAtom(), g.vecAtom()
	c := a.coord
	if b.coord > c {
		c = b.coord
	}
	return nx{src: fmt.Sprintf("dist(%s, %s)", a.src, b.src), bound: 2 * (2 * c) * (2 * c)}
}

// numAtom produces a leaf numeric expression within the magnitude cap.
func (g *gens) numAtom(cap float64) nx {
	for try := 0; try < 6; try++ {
		var e nx
		switch g.rng.Intn(6) {
		case 0:
			v := g.rng.Intn(10)
			e = nx{src: fmt.Sprintf("%d", v), bound: float64(v)}
		case 1:
			if len(g.loops) == 0 {
				continue
			}
			l := g.loops[g.rng.Intn(len(g.loops))]
			e = nx{src: l.name, bound: float64(l.n - 1)}
		case 2:
			switch g.rng.Intn(3) {
			case 0:
				e = nx{src: "n", bound: float64(g.nObj)}
			case 1:
				e = nx{src: "k", bound: float64(g.k)}
			default:
				e = nx{src: "iter", bound: float64(g.iter)}
			}
		case 3:
			v := g.pick(func(v *vinfo) bool { return v.kind == kNum && v.dims == nil })
			if v == nil {
				continue
			}
			e = nx{src: v.name, bound: v.bound}
		case 4:
			v := g.pick(func(v *vinfo) bool { return v.kind == kNum && len(v.dims) == 1 })
			if v == nil {
				continue
			}
			e = nx{src: fmt.Sprintf("%s[%s]", v.name, g.idx(v.dims[0])), bound: v.bound}
		default:
			v := g.pick(func(v *vinfo) bool { return v.kind == kNum && len(v.dims) == 2 })
			if v != nil && g.rng.Intn(2) == 0 {
				e = nx{src: fmt.Sprintf("%s[%s][%s]", v.name, g.idx(v.dims[0]), g.idx(v.dims[1])), bound: v.bound}
			} else {
				e = g.distAtom()
			}
		}
		if e.bound <= cap {
			return e
		}
	}
	v := g.rng.Intn(4)
	return nx{src: fmt.Sprintf("%d", v), bound: float64(v)}
}

// numExpr produces a numeric expression of the given depth budget whose
// magnitude bound stays below cap.
func (g *gens) numExpr(depth int, cap float64) nx {
	if depth <= 0 {
		return g.numAtom(cap)
	}
	switch g.rng.Intn(6) {
	case 0, 1:
		a := g.numExpr(depth-1, cap)
		b := g.numExpr(depth-1, cap-a.bound)
		return nx{src: fmt.Sprintf("(%s + %s)", a.src, b.src), bound: a.bound + b.bound}
	case 2:
		a := g.numExpr(depth-1, cap)
		// Keep the product in range: the second factor is a small literal
		// unless the first operand is small.
		if a.bound > 1000 || g.rng.Intn(2) == 0 {
			c := 1 + g.rng.Intn(3)
			if a.bound*float64(c) > cap {
				return a
			}
			return nx{src: fmt.Sprintf("(%s * %d)", a.src, c), bound: a.bound * float64(c)}
		}
		b := g.numAtom(1000)
		if a.bound*b.bound > cap {
			return a
		}
		return nx{src: fmt.Sprintf("(%s * %s)", a.src, b.src), bound: a.bound * b.bound}
	case 3:
		// pow with a small base keeps the result an exact integer.
		base := g.numAtom(1000)
		exp := g.rng.Intn(4)
		bound := 1.0
		for i := 0; i < exp; i++ {
			bound *= base.bound
		}
		if bound < 1 {
			bound = 1
		}
		if bound > cap {
			return base
		}
		return nx{src: fmt.Sprintf("pow(%s, %d)", base.src, exp), bound: bound}
	case 4:
		return g.reduceNum(depth, cap)
	default:
		return g.numAtom(cap)
	}
}

// reduceNum produces a reduce_sum, reduce_count, or reduce_mult over a list
// comprehension; empty ranges (undefined sums) are generated on purpose. A
// comprehension whose bound would exceed cap is replaced by an atom, drawn
// once the comprehension's variable is out of scope again.
func (g *gens) reduceNum(depth int, cap float64) nx {
	if e, ok := g.comprNum(depth, cap); ok {
		return e
	}
	return g.numAtom(cap)
}

// comprNum draws reduceNum's comprehension, or reports false if its bound
// would exceed cap.
func (g *gens) comprNum(depth int, cap float64) (nx, bool) {
	t := g.comprRange()
	q := g.fresh("q")
	g.loops = append(g.loops, loopInfo{name: q, n: t})
	defer func() { g.loops = g.loops[:len(g.loops)-1] }()
	cond := ""
	if g.rng.Intn(2) == 0 {
		cond = " if " + g.boolExpr(depth-1).src
	}
	rangeS := g.dimName(t)
	switch g.rng.Intn(3) {
	case 0:
		if float64(t) > cap {
			return nx{}, false
		}
		return nx{
			src:   fmt.Sprintf("reduce_count([1 for %s in range(0, %s)%s])", q, rangeS, cond),
			bound: float64(t),
		}, true
	case 1:
		elemCap := cap
		if t > 0 {
			elemCap = cap / float64(t)
		}
		el := g.numExpr(depth-1, elemCap)
		return nx{
			src:   fmt.Sprintf("reduce_sum([%s for %s in range(0, %s)%s])", el.src, q, rangeS, cond),
			bound: float64(t) * el.bound,
		}, true
	default:
		el := g.numAtom(30)
		bound := 1.0
		for i := 0; i < t; i++ {
			bound *= el.bound
			if el.bound < 1 {
				bound = 1
			}
		}
		if bound > cap {
			return nx{}, false
		}
		return nx{
			src:   fmt.Sprintf("reduce_mult([%s for %s in range(0, %s)%s])", el.src, q, rangeS, cond),
			bound: bound,
		}, true
	}
}

// comprRange picks a comprehension range bound; zero-trip ranges are kept
// rare but present (they exercise the undefined-value semantics).
func (g *gens) comprRange() int {
	if g.rng.Intn(8) == 0 {
		return 0
	}
	switch g.rng.Intn(4) {
	case 0:
		return g.nObj
	case 1:
		return g.k
	default:
		return 1 + g.rng.Intn(3)
	}
}

var cmpOps = []string{"<=", ">=", "<", ">", "=="}

// boolExpr produces a Boolean expression: comparisons between numeric
// expressions, Boolean variables and cells, and reduce_and / reduce_or over
// comprehensions. The user language has no and/or/not operators.
func (g *gens) boolExpr(depth int) bx {
	choice := g.rng.Intn(8)
	if depth <= 0 && choice >= 5 {
		choice = g.rng.Intn(5)
	}
	switch choice {
	case 0:
		if v := g.pick(func(v *vinfo) bool { return v.kind == kBool && v.dims == nil }); v != nil {
			return bx{src: v.name}
		}
	case 1:
		if v := g.pick(func(v *vinfo) bool { return v.kind == kBool && len(v.dims) == 1 }); v != nil {
			return bx{src: fmt.Sprintf("%s[%s]", v.name, g.idx(v.dims[0]))}
		}
	case 2:
		if v := g.pick(func(v *vinfo) bool { return v.kind == kBool && len(v.dims) == 2 }); v != nil {
			return bx{src: fmt.Sprintf("%s[%s][%s]", v.name, g.idx(v.dims[0]), g.idx(v.dims[1]))}
		}
	case 3:
		if g.rng.Intn(2) == 0 {
			return bx{src: "True"}
		}
		return bx{src: "False"}
	case 5, 6:
		if depth > 0 {
			return g.reduceBool(depth)
		}
	}
	// Comparison atom: the workhorse.
	d := depth - 1
	if d < 0 {
		d = 0
	}
	a := g.numExpr(d, maxMag)
	b := g.numExpr(d, maxMag)
	return bx{src: fmt.Sprintf("(%s %s %s)", a.src, cmpOps[g.rng.Intn(len(cmpOps))], b.src)}
}

// reduceBool produces reduce_and / reduce_or over a comprehension.
func (g *gens) reduceBool(depth int) bx {
	t := g.comprRange()
	q := g.fresh("q")
	g.loops = append(g.loops, loopInfo{name: q, n: t})
	defer func() { g.loops = g.loops[:len(g.loops)-1] }()
	el := g.boolExpr(depth - 1)
	cond := ""
	if g.rng.Intn(3) == 0 {
		cond = " if " + g.boolExpr(depth-1).src
	}
	fn := "reduce_and"
	if g.rng.Intn(2) == 0 {
		fn = "reduce_or"
	}
	return bx{src: fmt.Sprintf("%s([%s for %s in range(0, %s)%s])", fn, el.src, q, g.dimName(t), cond)}
}

// block generates one random top-level block.
func (g *gens) block() Block {
	g.lines = nil
	g.syms = nil
	g.blockStart = len(g.vars)
	g.selfContained = g.rng.Intn(10) < 7
	switch g.rng.Intn(5) {
	case 0:
		g.scalarBlock()
	case 1:
		g.arr1Block()
	case 2:
		g.arr2Block()
	case 3:
		g.accumBlock()
	default:
		g.iterBlock()
	}
	return Block{Lines: g.lines, Syms: g.syms}
}

// scalarBlock defines one or two fresh scalars.
func (g *gens) scalarBlock() {
	for i := 0; i < 1+g.rng.Intn(2); i++ {
		if g.rng.Intn(2) == 0 {
			name := g.fresh("s")
			e := g.numExpr(2, maxMag)
			g.emit("%s = %s", name, e.src)
			g.define(&vinfo{name: name, kind: kNum, bound: e.bound})
		} else {
			name := g.fresh("b")
			e := g.boolExpr(2)
			g.emit("%s = %s", name, e.src)
			g.define(&vinfo{name: name, kind: kBool})
		}
	}
}

// arr1Block fills a fresh 1-D array cell by cell, optionally breaking ties
// when the cells are Boolean.
func (g *gens) arr1Block() {
	d := []int{2, 3, g.nObj, g.k}[g.rng.Intn(4)]
	name := g.fresh("A")
	i := g.fresh("i")
	isBool := g.rng.Intn(2) == 0
	dimS := g.dimName(d)
	g.emit("%s = [None] * %s", name, dimS)
	g.emit("for %s in range(0, %s):", i, dimS)
	g.indent++
	g.loops = append(g.loops, loopInfo{name: i, n: d})
	var bound float64
	if isBool {
		e := g.boolExpr(2)
		g.emit("%s[%s] = %s", name, i, e.src)
	} else {
		e := g.numExpr(2, maxMag)
		g.emit("%s[%s] = %s", name, i, e.src)
		bound = e.bound
	}
	g.loops = g.loops[:len(g.loops)-1]
	g.indent--
	if isBool && g.rng.Intn(2) == 0 {
		g.emit("%s = breakTies(%s)", name, name)
	}
	kind := kNum
	if isBool {
		kind = kBool
	}
	g.define(&vinfo{name: name, kind: kind, dims: []int{d}, bound: bound})
}

// arr2Block fills a fresh 2-D array, optionally applying breakTies1 or
// breakTies2 when Boolean.
func (g *gens) arr2Block() {
	d1 := []int{2, g.k}[g.rng.Intn(2)]
	d2 := []int{2, 3, g.nObj}[g.rng.Intn(3)]
	name := g.fresh("A")
	i, j := g.fresh("i"), g.fresh("i")
	isBool := g.rng.Intn(3) > 0
	d1S, d2S := g.dimName(d1), g.dimName(d2)
	g.emit("%s = [None] * %s", name, d1S)
	g.emit("for %s in range(0, %s):", i, d1S)
	g.indent++
	g.loops = append(g.loops, loopInfo{name: i, n: d1})
	g.emit("%s[%s] = [None] * %s", name, i, d2S)
	g.emit("for %s in range(0, %s):", j, d2S)
	g.indent++
	g.loops = append(g.loops, loopInfo{name: j, n: d2})
	var bound float64
	if isBool {
		e := g.boolExpr(2)
		g.emit("%s[%s][%s] = %s", name, i, j, e.src)
	} else {
		e := g.numExpr(2, maxMag)
		g.emit("%s[%s][%s] = %s", name, i, j, e.src)
		bound = e.bound
	}
	g.loops = g.loops[:len(g.loops)-2]
	g.indent -= 2
	if isBool {
		switch g.rng.Intn(3) {
		case 0:
			g.emit("%s = breakTies1(%s)", name, name)
		case 1:
			g.emit("%s = breakTies2(%s)", name, name)
		}
	}
	kind := kNum
	if isBool {
		kind = kBool
	}
	g.define(&vinfo{name: name, kind: kind, dims: []int{d1, d2}, bound: bound})
}

// accumBlock grows a scalar accumulator inside a loop, exercising values
// carried across block boundaries (Example 3 of the paper). It sometimes
// reuses an existing scalar.
func (g *gens) accumBlock() {
	var name string
	reused := false
	if v := g.pick(func(v *vinfo) bool { return v.kind == kNum && v.dims == nil }); v != nil && g.rng.Intn(2) == 0 {
		name = v.name
		reused = true
	} else {
		name = g.fresh("s")
		e := g.numAtom(100)
		g.emit("%s = %s", name, e.src)
	}
	d := 1 + g.rng.Intn(3)
	i := g.fresh("i")
	g.emit("for %s in range(0, %d):", i, d)
	g.indent++
	g.loops = append(g.loops, loopInfo{name: i, n: d})
	step := g.numExpr(1, 1e5)
	g.emit("%s = (%s + %s)", name, name, step.src)
	if g.rng.Intn(2) == 0 {
		d2 := 1 + g.rng.Intn(2)
		j := g.fresh("i")
		g.emit("for %s in range(0, %d):", j, d2)
		g.indent++
		g.loops = append(g.loops, loopInfo{name: j, n: d2})
		step2 := g.numExpr(1, 1e5)
		g.emit("%s = (%s + %s)", name, name, step2.src)
		g.loops = g.loops[:len(g.loops)-1]
		g.indent--
		d = d * (1 + d2) // loose trip-count factor for the bound below
	}
	g.loops = g.loops[:len(g.loops)-1]
	g.indent--
	bound := 100 + float64(d+1)*2e5
	if reused {
		g.names[name].bound += bound
	} else {
		g.define(&vinfo{name: name, kind: kNum, bound: bound})
	}
}

// iterBlock wraps an accumulator in an outer `for it in range(0, iter)`
// loop, mirroring the clustering programs' iteration structure.
func (g *gens) iterBlock() {
	name := g.fresh("s")
	e := g.numAtom(100)
	g.emit("%s = %s", name, e.src)
	it := g.fresh("t")
	g.emit("for %s in range(0, iter):", it)
	g.indent++
	g.loops = append(g.loops, loopInfo{name: it, n: g.iter})
	d := 1 + g.rng.Intn(2)
	i := g.fresh("i")
	g.emit("for %s in range(0, %d):", i, d)
	g.indent++
	g.loops = append(g.loops, loopInfo{name: i, n: d})
	step := g.numExpr(1, 1e5)
	g.emit("%s = (%s + %s)", name, name, step.src)
	g.loops = g.loops[:len(g.loops)-2]
	g.indent -= 2
	g.define(&vinfo{name: name, kind: kNum, bound: 100 + float64(g.iter*d)*1e5})
}

// anchorBlock is always appended last and guarantees the program declares
// Boolean events that genuinely depend on the uncertain data, so the
// compiled network has nontrivial targets.
func (g *gens) anchorBlock() Block {
	g.lines = nil
	g.syms = nil
	g.blockStart = len(g.vars)
	g.selfContained = true
	switch g.rng.Intn(3) {
	case 0:
		g.anchorThreshold()
	case 1:
		g.anchorCount()
	default:
		g.anchorCluster()
	}
	return Block{Lines: g.lines, Syms: g.syms}
}

// anchorThreshold: per-object distance array, thresholded into a Boolean
// array, tie-broken. Absent objects have undefined distances, so their
// comparisons hold — the u-semantics shows up in the marginals.
func (g *gens) anchorThreshold() {
	dn := g.fresh("A")
	tn := g.fresh("T")
	l := g.fresh("i")
	g.emit("%s = [None] * n", dn)
	g.emit("for %s in range(0, n):", l)
	g.indent++
	g.loops = append(g.loops, loopInfo{name: l, n: g.nObj})
	g.emit("%s[%s] = dist(O[%s], M[%s])", dn, l, l, g.idx(g.k))
	g.loops = g.loops[:len(g.loops)-1]
	g.indent--
	thr := 30 + g.rng.Intn(200)
	l2 := g.fresh("i")
	g.emit("%s = [None] * n", tn)
	g.emit("for %s in range(0, n):", l2)
	g.indent++
	g.loops = append(g.loops, loopInfo{name: l2, n: g.nObj})
	g.emit("%s[%s] = (%s[%s] <= %d)", tn, l2, dn, l2, thr)
	g.loops = g.loops[:len(g.loops)-1]
	g.indent--
	if g.rng.Intn(2) == 0 {
		g.emit("%s = breakTies(%s)", tn, tn)
	}
	g.define(&vinfo{name: dn, kind: kNum, dims: []int{g.nObj}, bound: 1152})
	g.define(&vinfo{name: tn, kind: kBool, dims: []int{g.nObj}})
}

// anchorCount: a filtered count of nearby objects compared to a threshold;
// an empty count is undefined, and comparisons against u hold.
func (g *gens) anchorCount() {
	cn := g.fresh("s")
	bn := g.fresh("b")
	thr := 30 + g.rng.Intn(200)
	g.emit("%s = reduce_count([1 for q in range(0, n) if (dist(O[q], M[0]) <= %d)])", cn, thr)
	g.emit("%s = (%s >= %d)", bn, cn, 1+g.rng.Intn(3))
	g.define(&vinfo{name: cn, kind: kNum, bound: float64(g.nObj)})
	g.define(&vinfo{name: bn, kind: kBool})
}

// anchorCluster: the k-medoids assignment pattern — nearest-medoid Boolean
// matrix, tie-broken so each object is in exactly one cluster — optionally
// followed by a k-means-style vector reduction over cluster members.
func (g *gens) anchorCluster() {
	name := g.fresh("C")
	i, l, j := g.fresh("i"), g.fresh("i"), g.fresh("q")
	g.emit("%s = [None] * k", name)
	g.emit("for %s in range(0, k):", i)
	g.indent++
	g.emit("%s[%s] = [None] * n", name, i)
	g.emit("for %s in range(0, n):", l)
	g.indent++
	g.emit("%s[%s][%s] = reduce_and([(dist(O[%s], M[%s]) <= dist(O[%s], M[%s])) for %s in range(0, k)])",
		name, i, l, l, i, l, j, j)
	g.indent -= 2
	g.emit("%s = breakTies2(%s)", name, name)
	g.define(&vinfo{name: name, kind: kBool, dims: []int{g.k, g.nObj}})
	if g.rng.Intn(2) == 0 {
		wn := g.fresh("W")
		i2, l2 := g.fresh("i"), g.fresh("q")
		g.emit("%s = [None] * k", wn)
		g.emit("for %s in range(0, k):", i2)
		g.indent++
		g.emit("%s[%s] = reduce_sum([O[%s] for %s in range(0, n) if %s[%s][%s]])",
			wn, i2, l2, l2, name, i2, l2)
		g.indent--
		g.define(&vinfo{name: wn, kind: kVec, dims: []int{g.k}, bound: float64(g.nObj) * 12})
	}
}
