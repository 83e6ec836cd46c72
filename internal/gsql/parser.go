package gsql

import (
	"fmt"
	"strconv"
	"strings"

	"streamop/internal/value"
)

// Parse parses a sampling query.
//
// Grammar (keywords case-insensitive; GROUP_BY and SUPERGROUP [BY] spellings
// from the paper are accepted):
//
//	[EXPLAIN [ANALYZE]]
//	SELECT item [, item]...
//	FROM ident
//	[WHERE expr]
//	[GROUP BY gitem [, gitem]...]
//	[SUPERGROUP [BY] ident [, ident]...]
//	[HAVING expr]
//	[CLEANING WHEN expr]
//	[CLEANING BY expr]
//
// A query says what to sample, not how to run it: a ring's admission
// policy and a partial node's shard count are engine settings.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected %q after end of query", p.peek().text)
	}
	return q, nil
}

// ParseExpr parses a standalone expression (used by tests and tooling).
func ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected %q after expression", p.peek().text)
	}
	return e, nil
}

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("gsql: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

// keywordIs reports whether the current token is the given keyword.
func (p *parser) keywordIs(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.keywordIs(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", strings.ToUpper(kw), p.peek().text)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.advance()
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	// Optional EXPLAIN [ANALYZE] prefix: a runtime request (render the
	// plan, or run with cost profiling), not part of the query semantics.
	if p.acceptKeyword("explain") {
		q.Explain = "plan"
		if p.acceptKeyword("analyze") {
			q.Explain = "analyze"
		}
	}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	for {
		// ESTIMATE <expr> WITH ERROR marks an estimator item: the operator
		// emits the Horvitz–Thompson estimate of the expression plus its
		// error columns. ESTIMATE is effectively reserved at the start of a
		// select item.
		estimate := p.acceptKeyword("estimate")
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if estimate {
			if err := p.expectKeyword("with"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("error"); err != nil {
				return nil, err
			}
		}
		item := SelectItem{Expr: e, Estimate: estimate}
		if p.acceptKeyword("as") {
			t := p.advance()
			if t.kind != tokIdent {
				return nil, p.errorf("expected alias after AS, found %q", t.text)
			}
			item.Alias = t.text
		}
		q.Select = append(q.Select, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	t := p.advance()
	if t.kind != tokIdent {
		return nil, p.errorf("expected stream name after FROM, found %q", t.text)
	}
	q.From = t.text

	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.acceptKeyword("group_by") || (p.acceptKeyword("group") && true) {
		// "GROUP" must be followed by BY unless the GROUP_BY spelling
		// was used.
		if strings.EqualFold(p.toks[p.i-1].text, "group") {
			if err := p.expectKeyword("by"); err != nil {
				return nil, err
			}
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := GroupItem{Expr: e}
			if p.acceptKeyword("as") {
				t := p.advance()
				if t.kind != tokIdent {
					return nil, p.errorf("expected alias after AS, found %q", t.text)
				}
				item.Alias = t.text
			}
			q.GroupBy = append(q.GroupBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("supergroup") {
		p.acceptKeyword("by") // optional BY
		q.Supergroup = []string{}
		for {
			t := p.advance()
			if t.kind != tokIdent {
				return nil, p.errorf("expected group-by variable in SUPERGROUP, found %q", t.text)
			}
			q.Supergroup = append(q.Supergroup, t.text)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Having = e
	}
	for p.acceptKeyword("cleaning") {
		switch {
		case p.acceptKeyword("when"):
			if q.CleaningWhen != nil {
				return nil, p.errorf("duplicate CLEANING WHEN clause")
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.CleaningWhen = e
		case p.acceptKeyword("by"):
			if q.CleaningBy != nil {
				return nil, p.errorf("duplicate CLEANING BY clause")
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.CleaningBy = e
		default:
			return nil, p.errorf("expected WHEN or BY after CLEANING, found %q", p.peek().text)
		}
	}
	return q, nil
}

// Expression precedence (loosest to tightest):
// OR, AND, NOT, comparison, additive, multiplicative, unary minus, primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("not") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]bool{"=": true, "<": true, "<=": true, ">": true, ">=": true, "<>": true, "!=": true}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp && comparisonOps[t.text] {
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		op := t.text
		if op == "!=" {
			op = "<>"
		}
		return &Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "+", L: l, R: r}
		case p.acceptOp("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "*", L: l, R: r}
		case p.acceptOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "/", L: l, R: r}
		case p.acceptOp("%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "%", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad float literal %q: %v", t.text, err)
			}
			return &Lit{Val: value.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			// Fall back to uint for very large literals.
			u, uerr := strconv.ParseUint(t.text, 10, 64)
			if uerr != nil {
				return nil, p.errorf("bad integer literal %q: %v", t.text, err)
			}
			return &Lit{Val: value.NewUint(u)}, nil
		}
		return &Lit{Val: value.NewInt(i)}, nil
	case tokString:
		p.advance()
		return &Lit{Val: value.NewString(t.text)}, nil
	case tokIdent:
		switch strings.ToLower(t.text) {
		case "true":
			p.advance()
			return &Lit{Val: value.NewBool(true)}, nil
		case "false":
			p.advance()
			return &Lit{Val: value.NewBool(false)}, nil
		case "null":
			p.advance()
			return &Lit{Val: value.Value{}}, nil
		}
		p.advance()
		if !p.acceptOp("(") {
			return &Ident{Name: t.text}, nil
		}
		call := &Call{Name: t.text}
		if p.acceptOp(")") {
			return call, nil
		}
		for {
			if p.acceptOp("*") {
				call.Args = append(call.Args, &Star{})
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
			}
			if p.acceptOp(",") {
				continue
			}
			if p.acceptOp(")") {
				return call, nil
			}
			return nil, p.errorf("expected ',' or ')' in argument list, found %q", p.peek().text)
		}
	case tokOp:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.acceptOp(")") {
				return nil, p.errorf("expected ')', found %q", p.peek().text)
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q", t.text)
}
