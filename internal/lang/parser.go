package lang

import (
	"strconv"
)

// Builtins of the user language, checked by the validator.
var builtins = map[string]struct{ minArgs, maxArgs int }{
	"dist":         {2, 2},
	"pow":          {2, 2},
	"invert":       {1, 1},
	"scalar_mult":  {2, 2},
	"breakTies":    {1, 1},
	"breakTies1":   {1, 1},
	"breakTies2":   {1, 1},
	"reduce_and":   {1, 1},
	"reduce_or":    {1, 1},
	"reduce_sum":   {1, 1},
	"reduce_mult":  {1, 1},
	"reduce_count": {1, 1},
	"loadData":     {0, 0},
	"loadParams":   {0, 0},
	"init":         {0, 0},
	"range":        {2, 2},
}

// Parse lexes and parses a user program. A common indentation margin (from
// Go source literals) is stripped first.
func Parse(src string) (*Program, error) {
	toks, err := Tokens(src)
	if err != nil {
		return nil, err
	}
	return ParseTokens(toks)
}

// Tokens lexes a user program exactly as Parse does (the common indentation
// margin is stripped first). Split out so callers can time and trace lexing
// separately from parsing.
func Tokens(src string) ([]Token, error) {
	return Lex(stripCommon(src))
}

// ParseTokens parses a token stream produced by Tokens.
func ParseTokens(toks []Token) (*Program, error) {
	p := &parser{toks: toks, slots: map[string]int{}}
	prog := &Program{}
	for !p.at(TokEOF) {
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, st)
	}
	prog.Names = p.names
	return prog, nil
}

// MustParse parses or panics; for tests and embedded canonical programs.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	toks []Token
	i    int
	// depth counts active stmt/factor recursion frames. Every recursion
	// cycle in the grammar passes through one of the two, so bounding them
	// bounds the whole parse and turns pathologically nested input into a
	// positioned error instead of a stack overflow.
	depth int
	// slots numbers the variable identifiers in order of first appearance;
	// names is its inverse, the Program's Names.
	slots map[string]int
	names []string
}

// slot returns the slot of a variable identifier, allocating the next one
// on first sight.
func (p *parser) slot(name string) int {
	s, ok := p.slots[name]
	if !ok {
		s = len(p.names)
		p.slots[name] = s
		p.names = append(p.names, name)
	}
	return s
}

// maxDepth is far beyond any real program (the canonical clustering
// programs nest < 10 deep) but small enough that the recursion never
// threatens the goroutine stack.
const maxDepth = 200

func (p *parser) push(pos Pos) error {
	p.depth++
	if p.depth > maxDepth {
		return errf(pos, "nesting deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *parser) pop() { p.depth-- }

func (p *parser) cur() Token        { return p.toks[p.i] }
func (p *parser) at(k TokKind) bool { return p.toks[p.i].Kind == k }

func (p *parser) advance() Token {
	t := p.toks[p.i]
	if t.Kind != TokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(k TokKind) (Token, error) {
	if !p.at(k) {
		return Token{}, errf(p.cur().Pos, "expected %v, found %v", k, p.cur().Kind)
	}
	return p.advance(), nil
}

func (p *parser) stmt() (Stmt, error) {
	if err := p.push(p.cur().Pos); err != nil {
		return nil, err
	}
	defer p.pop()
	switch p.cur().Kind {
	case TokFor:
		return p.forStmt()
	case TokLParen:
		return p.tupleAssign()
	case TokIdent:
		return p.assign()
	}
	return nil, errf(p.cur().Pos, "expected a statement, found %v", p.cur().Kind)
}

func (p *parser) forStmt() (Stmt, error) {
	pos := p.advance().Pos // 'for'
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokIn); err != nil {
		return nil, err
	}
	rng, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if rng.Text != "range" {
		return nil, errf(rng.Pos, "for-loops iterate over range(a, b), found %q", rng.Text)
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	from, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	to, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokNewline); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokIndent); err != nil {
		return nil, err
	}
	var body []Stmt
	for !p.at(TokDedent) && !p.at(TokEOF) {
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		body = append(body, st)
	}
	if _, err := p.expect(TokDedent); err != nil {
		return nil, err
	}
	return &For{Pos: pos, Var: name.Text, Slot: p.slot(name.Text), From: from, To: to, Body: body}, nil
}

func (p *parser) tupleAssign() (Stmt, error) {
	pos := p.advance().Pos // '('
	var names []string
	var slots []int
	for {
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		names = append(names, name.Text)
		slots = append(slots, p.slot(name.Text))
		if p.at(TokComma) {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	fn, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokNewline); err != nil {
		return nil, err
	}
	return &TupleAssign{Pos: pos, Names: names, Slots: slots, Fn: fn.Text}, nil
}

func (p *parser) assign() (Stmt, error) {
	lv, err := p.lvalue()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokNewline); err != nil {
		return nil, err
	}
	return &Assign{Pos: lv.Pos, Target: lv, Value: rhs}, nil
}

func (p *parser) lvalue() (LValue, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return LValue{}, err
	}
	lv := LValue{Pos: name.Pos, Name: name.Text, Slot: p.slot(name.Text)}
	for p.at(TokLBracket) {
		p.advance()
		ix, err := p.expr()
		if err != nil {
			return LValue{}, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return LValue{}, err
		}
		lv.Indices = append(lv.Indices, ix)
	}
	return lv, nil
}

// expr := additive [COMP additive]
func (p *parser) expr() (Expr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.cur().Kind {
	case TokLE:
		op = "<="
	case TokGE:
		op = ">="
	case TokLT:
		op = "<"
	case TokGT:
		op = ">"
	case TokEq:
		op = "=="
	default:
		return l, nil
	}
	pos := p.advance().Pos
	r, err := p.additive()
	if err != nil {
		return nil, err
	}
	return &BinOp{Pos: pos, Op: op, L: l, R: r}, nil
}

func (p *parser) additive() (Expr, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.at(TokPlus) {
		pos := p.advance().Pos
		r, err := p.term()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Pos: pos, Op: "+", L: l, R: r}
	}
	return l, nil
}

func (p *parser) term() (Expr, error) {
	l, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.at(TokStar) {
		pos := p.advance().Pos
		r, err := p.factor()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Pos: pos, Op: "*", L: l, R: r}
	}
	return l, nil
}

func (p *parser) factor() (Expr, error) {
	if err := p.push(p.cur().Pos); err != nil {
		return nil, err
	}
	defer p.pop()
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.advance()
		v, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, errf(t.Pos, "bad integer literal %q", t.Text)
		}
		return &IntLit{Pos: t.Pos, V: v}, nil
	case TokFloat:
		p.advance()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad float literal %q", t.Text)
		}
		return &FloatLit{Pos: t.Pos, V: v}, nil
	case TokTrue:
		p.advance()
		return &BoolLit{Pos: t.Pos, V: true}, nil
	case TokFalse:
		p.advance()
		return &BoolLit{Pos: t.Pos, V: false}, nil
	case TokNone:
		p.advance()
		return &NoneLit{Pos: t.Pos}, nil
	case TokLParen:
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return p.postfix(e)
	case TokLBracket:
		return p.bracket()
	case TokIdent:
		p.advance()
		if p.at(TokLParen) {
			p.advance()
			var args []Expr
			for !p.at(TokRParen) {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.at(TokComma) {
					p.advance()
				}
			}
			p.advance() // ')'
			return p.postfix(&Call{Pos: t.Pos, Fn: t.Text, Args: args})
		}
		return p.postfix(&Name{Pos: t.Pos, Ident: t.Text, Slot: p.slot(t.Text)})
	}
	return nil, errf(t.Pos, "expected an expression, found %v", t.Kind)
}

func (p *parser) postfix(e Expr) (Expr, error) {
	for p.at(TokLBracket) {
		pos := p.advance().Pos
		ix, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		e = &IndexExpr{Pos: pos, X: e, Index: ix}
	}
	return e, nil
}

// bracket parses `[None] * expr` (array initialisation) or a list
// comprehension `[elem for v in range(a, b) if cond]`.
func (p *parser) bracket() (Expr, error) {
	pos := p.advance().Pos // '['
	if p.at(TokNone) {
		p.advance()
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokStar); err != nil {
			return nil, err
		}
		size, err := p.factor()
		if err != nil {
			return nil, err
		}
		return &ArrayLit{Pos: pos, Size: size}, nil
	}
	elem, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokFor); err != nil {
		return nil, err
	}
	v, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokIn); err != nil {
		return nil, err
	}
	rng, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if rng.Text != "range" {
		return nil, errf(rng.Pos, "list comprehension iterates over range(a, b)")
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	from, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	to, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	var cond Expr
	if p.at(TokIf) {
		p.advance()
		cond, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRBracket); err != nil {
		return nil, err
	}
	return &ListCompr{Pos: pos, Elem: elem, Var: v.Text, Slot: p.slot(v.Text), From: from, To: to, Cond: cond}, nil
}
