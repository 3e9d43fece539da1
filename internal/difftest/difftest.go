// Package difftest is the end-to-end differential verification harness. For
// one generated program (internal/gen) it computes every checked symbol
// through four paths and asserts they agree:
//
//  1. the naïve per-world oracle — enumerate all possible worlds
//     (internal/worlds) and run the interpreter (internal/interp) in each,
//     checking the built network against it world by world: the program is
//     grounded once more with no targets, so every node is kept, and the
//     node of every checked symbol, Boolean or numeric, must evaluate
//     (network.Eval) to the interpreter's value — the §3 semantics of the
//     translation and the builder's simplifications in one check;
//  2. the pipeline as shipped — translate and ground in one fused pass
//     (translate.TranslateInto into a network.Builder, as core does) and
//     compile marginal probabilities exactly (internal/prob);
//  3. the reference recompute evaluator (prob.CompileRef);
//  4. the knowledge-compilation circuit backend (prob.CompileCircuit) — an
//     exact trace recorded into an arithmetic circuit and replayed, required
//     to be bit-identical to path 2 including work counters, not merely
//     within tolerance.
//
// The bits themselves are pinned separately, by the golden corpus
// (golden_test.go).
//
// On top of the exact agreement it checks the ε-approximation contract of
// the eager, lazy, and hybrid strategies (truth within bounds, gap ≤ 2ε,
// estimate within ε) and that the distributed runner returns bounds equal
// to the sequential compiler for every Workers × JobDepth combination.
//
// A failing program is shrunk by dropping blocks while the differential
// failure persists; the reported error carries the one seed that
// reproduces it via `enframe fuzz -seed N -n 1`.
package difftest

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"strconv"
	"strings"

	"enframe/internal/event"
	"enframe/internal/gen"
	"enframe/internal/interp"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/network"
	"enframe/internal/prob"
	"enframe/internal/translate"
	"enframe/internal/worlds"
)

// tol is the agreement tolerance for paths that are exact by construction.
const tol = 1e-9

// Options selects which configurations Check exercises beyond the always-on
// exact/reference/oracle comparison.
type Options struct {
	// Epsilons are the error budgets for the eager/lazy/hybrid runs.
	Epsilons []float64
	// Workers and JobDepths are crossed to exercise the distributed runner.
	Workers   []int
	JobDepths []int
	// NoShrink reports the original failing program without shrinking.
	NoShrink bool
}

// Quick is the per-seed configuration used for bulk runs and fuzzing.
func Quick() Options {
	return Options{Epsilons: []float64{0.05}, Workers: []int{2}, JobDepths: []int{3}}
}

// Full crosses more approximation and distribution settings per seed.
func Full() Options {
	return Options{
		Epsilons:  []float64{0.01, 0.1},
		Workers:   []int{1, 2, 4},
		JobDepths: []int{1, 3},
	}
}

// Failure describes one differential disagreement.
type Failure struct {
	Seed   int64
	Stage  string // which path or configuration disagreed
	Detail string
	Source string // (possibly shrunk) program text
}

func (f *Failure) Error() string {
	return fmt.Sprintf("difftest: seed %d: %s: %s\nreproduce: enframe fuzz -seed %d -n 1\nprogram:\n%s",
		f.Seed, f.Stage, f.Detail, f.Seed, f.Source)
}

// externalOf is the translation input of a generated program.
func externalOf(p *gen.Program) translate.External {
	in := p.Input
	return translate.External{
		Objects:     in.Objects,
		Params:      in.Params,
		InitIndices: in.InitIndices,
	}
}

// groundChecked grounds a generated program with no targets: Build then
// keeps every node in construction order, so the result's node ids index
// the returned network. It is the network the per-world stage evaluates.
func groundChecked(p *gen.Program, prog *lang.Program) (*network.Net, *translate.NetResult, error) {
	b := network.NewBuilder(p.Input.Space, p.Input.Metric)
	res, err := translate.TranslateInto(prog, externalOf(p), b)
	if err != nil {
		return nil, nil, err
	}
	return b.Build(), res, nil
}

// groundProgram grounds a generated program the way core does — translation
// emitting straight into the hash-consed builder — with every Boolean
// checked symbol as a compilation target named after the symbol. It returns
// a nil network when the program has no Boolean symbols.
func groundProgram(p *gen.Program, prog *lang.Program) (*network.Net, error) {
	b := network.NewBuilder(p.Input.Space, p.Input.Metric)
	res, err := translate.TranslateInto(prog, externalOf(p), b)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, s := range p.Syms() {
		if !s.IsBool {
			continue
		}
		id, ok := res.BoolNode(s.Name)
		if !ok {
			return nil, fmt.Errorf("no Boolean binding for %s", s.Name)
		}
		b.Target(s.Name, id)
		n++
	}
	if n == 0 {
		return nil, nil
	}
	return b.Build(), nil
}

// GenNet grounds one generated program as Check does, with every Boolean
// checked symbol as a target; nil when the program yields no comparable
// network. It builds the generated half of the golden corpus for
// TestGoldenBits and TestCircuitExactEquivalence, and the prob package's
// TestRecycledBlocksNeverReadStale, TestParentIndexTransposesKids and
// TestFanoutOrderMatchesReference replay it.
func GenNet(p *gen.Program) *network.Net {
	prog, err := lang.Parse(p.Source())
	if err != nil {
		return nil
	}
	net, err := groundProgram(p, prog)
	if err != nil {
		return nil
	}
	return net
}

// setupStages are failure stages that do not indicate a differential bug in
// a shrink candidate (dropping a block can orphan a reference, which is the
// candidate's fault, not the pipeline's).
var setupStages = map[string]bool{"parse": true, "translate": true, "setup": true}

// Check generates the program of the given seed, runs the full differential
// matrix, and returns a *Failure (shrunk unless opt.NoShrink) or nil.
func Check(seed int64, opt Options) error {
	p := gen.New(seed)
	f := checkProgram(p, opt)
	if f == nil {
		return nil
	}
	if !opt.NoShrink {
		p, f = shrink(p, f, opt)
	}
	f.Seed = seed
	f.Source = p.Source()
	return f
}

// shrink repeatedly drops whole blocks while some differential stage still
// fails. Candidates that fail during setup are rejected: those failures are
// artifacts of the removal, not of the pipeline.
func shrink(p *gen.Program, f *Failure, opt Options) (*gen.Program, *Failure) {
	for improved := true; improved; {
		improved = false
		for i := len(p.Blocks) - 1; i >= 0; i-- {
			if len(p.Blocks) <= 1 {
				break
			}
			cand := p.WithoutBlock(i)
			cf := checkProgram(cand, opt)
			if cf != nil && !setupStages[cf.Stage] {
				p, f = cand, cf
				improved = true
				break
			}
		}
	}
	return p, f
}

// checkProgram runs the differential matrix over one program. Any panic in
// any path is converted into a Failure rather than crashing the harness.
func checkProgram(p *gen.Program, opt Options) (f *Failure) {
	defer func() {
		if r := recover(); r != nil {
			f = &Failure{Stage: "panic", Detail: fmt.Sprintf("%v\n%s", r, debug.Stack())}
		}
	}()

	prog, err := lang.Parse(p.Source())
	if err != nil {
		return &Failure{Stage: "parse", Detail: err.Error()}
	}
	if err := lang.Validate(prog); err != nil {
		return &Failure{Stage: "parse", Detail: "validate: " + err.Error()}
	}
	in := p.Input
	// The per-world check reads an untargeted grounding; the compilers below
	// run on the targeted one (groundProgram), as core's would.
	checked, res, err := groundChecked(p, prog)
	if err != nil {
		return &Failure{Stage: "translate", Detail: err.Error()}
	}
	syms := p.Syms()
	nodes := make([]network.NodeID, len(syms))
	isBool := make([]bool, len(syms))
	for i, s := range syms {
		if id, ok := res.BoolNode(s.Name); ok && s.IsBool {
			nodes[i], isBool[i] = id, true
		} else if id, ok := res.NumNode(s.Name); ok {
			nodes[i] = id
		} else {
			return &Failure{Stage: "oracle", Detail: fmt.Sprintf("no translated binding for %s", s.Name)}
		}
	}

	// Path 1: the per-world oracle. Every world's interpreter run must
	// match the built network, and the Boolean marginals accumulated here
	// are the ground truth for the compiled paths below.
	truth := map[string]float64{}
	for _, s := range syms {
		if s.IsBool {
			truth[s.Name] = 0
		}
	}
	mass := 0.0
	evs := lineage.Events(in.Objects)
	worlds.Enumerate(in.Space, func(nu event.SliceValuation, pw float64) bool {
		mass += pw
		present := worlds.Presence(evs, nu)
		w, err := interp.Run(prog, interp.External{
			Objects:     in.Objects,
			Present:     present,
			Params:      in.Params,
			InitIndices: in.InitIndices,
			Metric:      in.Metric,
		})
		if err != nil {
			f = &Failure{Stage: "interp", Detail: fmt.Sprintf("world %v: %v", nu, err)}
			return false
		}
		a := checked.Eval(nu)
		for i, s := range syms {
			want, err := worldValue(w, s.Name)
			if err != nil {
				f = &Failure{Stage: "oracle", Detail: fmt.Sprintf("world %v: %v", nu, err)}
				return false
			}
			got := a.Nums[nodes[i]]
			if isBool[i] {
				got = event.Bool(a.Bools[nodes[i]])
			}
			if !got.Equal(want) && !got.AlmostEqual(want, tol) {
				f = &Failure{
					Stage:  "oracle",
					Detail: fmt.Sprintf("world %v: %s: network %v vs interpreted %v", nu, s.Name, got, want),
				}
				return false
			}
			if s.IsBool && want.B {
				truth[s.Name] += pw
			}
		}
		return true
	})
	if f != nil {
		return f
	}
	if math.Abs(mass-1) > tol {
		return &Failure{Stage: "oracle", Detail: fmt.Sprintf("world probabilities sum to %g", mass)}
	}

	// Paths 2 and 3: ground the program as core does, with the Boolean
	// symbols as targets, and compile their marginals.
	net, err := groundProgram(p, prog)
	if err != nil {
		return &Failure{Stage: "network", Detail: err.Error()}
	}
	if net == nil {
		return &Failure{Stage: "setup", Detail: "no Boolean targets"}
	}

	exact, err := prob.Compile(net, prob.Options{Strategy: prob.Exact})
	if err != nil {
		return &Failure{Stage: "exact", Detail: err.Error()}
	}
	if f := checkExact(exact, "exact", truth); f != nil {
		return f
	}
	// Path 4: the knowledge-compilation circuit backend. Tracing the exact
	// walk into a circuit and replaying it must reproduce the exact
	// compiler's float-op sequence — bounds and work counters bit-identical.
	_, circ, err := prob.CompileCircuit(context.Background(), net, prob.Options{})
	if err != nil {
		return &Failure{Stage: "circuit", Detail: err.Error()}
	}
	if f := checkBitIdentical(circ, exact, "circuit"); f != nil {
		return f
	}
	ref, err := prob.CompileRef(net, prob.Options{Strategy: prob.Exact})
	if err != nil {
		return &Failure{Stage: "reference", Detail: err.Error()}
	}
	if f := checkExact(ref, "reference", truth); f != nil {
		return f
	}
	order, err := prob.Compile(net, prob.Options{Strategy: prob.Exact, Heuristic: prob.InputOrder})
	if err != nil {
		return &Failure{Stage: "order", Detail: err.Error()}
	}
	if f := checkExact(order, "order", truth); f != nil {
		return f
	}

	// Approximation contract: truth within bounds, gap ≤ 2ε, estimate
	// within ε — for every strategy × ε.
	for _, eps := range opt.Epsilons {
		for _, strat := range []prob.Strategy{prob.Eager, prob.Lazy, prob.Hybrid} {
			r, err := prob.Compile(net, prob.Options{Strategy: strat, Epsilon: eps})
			stage := fmt.Sprintf("%v ε=%g", strat, eps)
			if err != nil {
				return &Failure{Stage: stage, Detail: err.Error()}
			}
			if f := checkApprox(r, stage, eps, truth); f != nil {
				return f
			}
		}
	}

	// Distributed runner: bounds must equal the sequential exact compile
	// for every Workers × JobDepth combination, and the hybrid strategy
	// must keep its ε contract when distributed.
	for _, w := range opt.Workers {
		for _, d := range opt.JobDepths {
			r, err := prob.Compile(net, prob.Options{Strategy: prob.Exact, Workers: w, JobDepth: d})
			stage := fmt.Sprintf("distributed W=%d depth=%d", w, d)
			if err != nil {
				return &Failure{Stage: stage, Detail: err.Error()}
			}
			if f := checkSame(r, exact, stage); f != nil {
				return f
			}
		}
	}
	if len(opt.Epsilons) > 0 && len(opt.Workers) > 0 {
		eps, w := opt.Epsilons[0], opt.Workers[len(opt.Workers)-1]
		r, err := prob.Compile(net, prob.Options{Strategy: prob.Hybrid, Epsilon: eps, Workers: w})
		stage := fmt.Sprintf("distributed-hybrid W=%d ε=%g", w, eps)
		if err != nil {
			return &Failure{Stage: stage, Detail: err.Error()}
		}
		if f := checkApprox(r, stage, eps, truth); f != nil {
			return f
		}
	}
	return nil
}

// checkExact asserts an exact-mode result: every target pinned to the
// oracle marginal with a vanishing gap.
func checkExact(r *prob.Result, stage string, truth map[string]float64) *Failure {
	for _, tb := range r.Targets {
		sym := tb.Name
		want, ok := truth[sym]
		if !ok {
			return &Failure{Stage: stage, Detail: fmt.Sprintf("unexpected target %q", sym)}
		}
		if tb.Gap() > tol {
			return &Failure{Stage: stage, Detail: fmt.Sprintf("%s: gap %g not exact", sym, tb.Gap())}
		}
		if math.Abs(tb.Lower-want) > tol && math.Abs(tb.Upper-want) > tol {
			return &Failure{Stage: stage,
				Detail: fmt.Sprintf("%s: got [%.12g, %.12g], oracle %.12g", sym, tb.Lower, tb.Upper, want)}
		}
	}
	return nil
}

// checkApprox asserts the ε contract of an approximate result.
func checkApprox(r *prob.Result, stage string, eps float64, truth map[string]float64) *Failure {
	for _, tb := range r.Targets {
		sym := tb.Name
		want, ok := truth[sym]
		if !ok {
			return &Failure{Stage: stage, Detail: fmt.Sprintf("unexpected target %q", sym)}
		}
		if want < tb.Lower-tol || want > tb.Upper+tol {
			return &Failure{Stage: stage,
				Detail: fmt.Sprintf("%s: oracle %.12g outside [%.12g, %.12g]", sym, want, tb.Lower, tb.Upper)}
		}
		if tb.Gap() > 2*eps+tol {
			return &Failure{Stage: stage, Detail: fmt.Sprintf("%s: gap %g exceeds 2ε", sym, tb.Gap())}
		}
		if e := tb.Estimate(); math.Abs(e-want) > eps+tol {
			return &Failure{Stage: stage,
				Detail: fmt.Sprintf("%s: estimate %.12g off oracle %.12g by more than ε", sym, e, want)}
		}
	}
	return nil
}

// checkBitIdentical asserts two results carry the same bounds down to the
// last float bit and the same work counters — the contract between the
// traced circuit and exact compilation.
func checkBitIdentical(got, want *prob.Result, stage string) *Failure {
	if len(got.Targets) != len(want.Targets) {
		return &Failure{Stage: stage,
			Detail: fmt.Sprintf("%d targets, exact has %d", len(got.Targets), len(want.Targets))}
	}
	for i, wt := range want.Targets {
		gt := got.Targets[i]
		if gt.Name != wt.Name ||
			math.Float64bits(gt.Lower) != math.Float64bits(wt.Lower) ||
			math.Float64bits(gt.Upper) != math.Float64bits(wt.Upper) {
			return &Failure{Stage: stage,
				Detail: fmt.Sprintf("%s: [%x, %x] vs exact [%x, %x]",
					wt.Name, math.Float64bits(gt.Lower), math.Float64bits(gt.Upper),
					math.Float64bits(wt.Lower), math.Float64bits(wt.Upper))}
		}
	}
	gs, ws := &got.Stats, &want.Stats
	if gs.Branches != ws.Branches || gs.Assignments != ws.Assignments ||
		gs.MaskUpdates != ws.MaskUpdates || gs.BudgetPrunes != ws.BudgetPrunes ||
		gs.MaxDepth != ws.MaxDepth {
		return &Failure{Stage: stage,
			Detail: fmt.Sprintf("work counters diverged: branches %d/%d assignments %d/%d mask_updates %d/%d prunes %d/%d depth %d/%d",
				gs.Branches, ws.Branches, gs.Assignments, ws.Assignments,
				gs.MaskUpdates, ws.MaskUpdates, gs.BudgetPrunes, ws.BudgetPrunes,
				gs.MaxDepth, ws.MaxDepth)}
	}
	return nil
}

// checkSame asserts two results carry identical bounds target by target.
func checkSame(got, want *prob.Result, stage string) *Failure {
	if len(got.Targets) != len(want.Targets) {
		return &Failure{Stage: stage,
			Detail: fmt.Sprintf("%d targets, sequential has %d", len(got.Targets), len(want.Targets))}
	}
	for _, wt := range want.Targets {
		gt, ok := got.Target(wt.Name)
		if !ok {
			return &Failure{Stage: stage, Detail: fmt.Sprintf("missing target %q", wt.Name)}
		}
		if math.Abs(gt.Lower-wt.Lower) > tol || math.Abs(gt.Upper-wt.Upper) > tol {
			return &Failure{Stage: stage,
				Detail: fmt.Sprintf("%s: got [%.12g, %.12g], sequential [%.12g, %.12g]",
					wt.Name, gt.Lower, gt.Upper, wt.Lower, wt.Upper)}
		}
	}
	return nil
}

// worldValue resolves a flattened symbol like "C0[1][2]" in the
// interpreter's final environment.
func worldValue(w *interp.World, sym string) (event.Value, error) {
	name := sym
	var idx []int
	if i := strings.IndexByte(sym, '['); i >= 0 {
		name = sym[:i]
		rest := sym[i:]
		for len(rest) > 0 {
			j := strings.IndexByte(rest, ']')
			if j < 0 {
				return event.Value{}, fmt.Errorf("malformed symbol %q", sym)
			}
			n, err := strconv.Atoi(rest[1:j])
			if err != nil {
				return event.Value{}, fmt.Errorf("malformed symbol %q: %v", sym, err)
			}
			idx = append(idx, n)
			rest = rest[j+1:]
		}
	}
	v, ok := w.Var(name)
	if !ok {
		return event.Value{}, fmt.Errorf("no interpreter variable %q", name)
	}
	for _, ix := range idx {
		if !v.IsArr() || ix >= len(v.Arr) {
			return event.Value{}, fmt.Errorf("bad index path %s", sym)
		}
		v = v.Arr[ix]
	}
	if v.None {
		return event.Value{}, fmt.Errorf("%s is uninitialised", sym)
	}
	return v.V, nil
}
