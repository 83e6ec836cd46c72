// Package gsql implements the query dialect of the sampling operator: the
// grouping/aggregation core of Gigascope's GSQL extended with the paper's
// SUPERGROUP, CLEANING WHEN and CLEANING BY clauses, superaggregates
// (count_distinct$, kth_smallest_value$, ...) and stateful functions.
//
// The package provides a lexer, a recursive-descent parser producing an
// AST, and an analyzer that binds a parsed query against a stream schema
// and a stateful-function registry, compiling every clause to evaluable
// closures consumed by the operator runtime.
package gsql

import (
	"strings"

	"streamop/internal/value"
)

// Expr is a parsed expression node.
type Expr interface {
	// String renders the expression in re-parseable query syntax.
	String() string
	exprNode()
}

// Ident references a stream column or a group-by variable.
type Ident struct {
	Name string
}

// Lit is a literal constant (number, string or boolean).
type Lit struct {
	Val value.Value
}

// Star is the * argument of count(*) and count_distinct$(*).
type Star struct{}

// Unary is -x or NOT x.
type Unary struct {
	Op string // "-" or "NOT"
	X  Expr
}

// Binary is a binary operation: arithmetic (+ - * / %), comparison
// (= <> < <= > >=) or logical (AND, OR).
type Binary struct {
	Op   string
	L, R Expr
}

// Call is a function, aggregate or superaggregate invocation.
type Call struct {
	Name string
	Args []Expr
}

func (*Ident) exprNode()  {}
func (*Lit) exprNode()    {}
func (*Star) exprNode()   {}
func (*Unary) exprNode()  {}
func (*Binary) exprNode() {}
func (*Call) exprNode()   {}

func (e *Ident) String() string { return e.Name }

func (e *Lit) String() string {
	if e.Val.Kind() == value.String {
		return "'" + strings.ReplaceAll(e.Val.Str(), "'", "''") + "'"
	}
	return e.Val.String()
}

func (e *Star) String() string { return "*" }

func (e *Unary) String() string {
	x := e.X.String()
	// Parenthesize nested unary operands and anything printing with a
	// leading minus (negative literals): "--x" would lex as a SQL line
	// comment, and "-NOT x" would not reparse.
	if _, nested := e.X.(*Unary); nested || strings.HasPrefix(x, "-") {
		x = "(" + x + ")"
	}
	if e.Op == "NOT" {
		return "NOT " + x
	}
	return e.Op + x
}

func (e *Binary) String() string {
	return "(" + operand(e.L) + " " + e.Op + " " + operand(e.R) + ")"
}

// operand renders a binary operand, parenthesizing NOT — which binds
// looser than comparisons and arithmetic — so the printed form reparses
// with the original structure.
func operand(e Expr) string {
	if u, ok := e.(*Unary); ok && u.Op == "NOT" {
		return "(" + u.String() + ")"
	}
	return e.String()
}

func (e *Call) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// SelectItem is one SELECT-clause expression with an optional alias.
// Estimate marks an `ESTIMATE <expr> WITH ERROR` item: the operator emits
// the expression's Horvitz–Thompson estimate plus error columns (stderr,
// 95% CI bounds, effective sample size) instead of the raw value.
type SelectItem struct {
	Expr     Expr
	Alias    string
	Estimate bool
}

// GroupItem is one GROUP BY expression with an optional alias
// (time/60 as tb).
type GroupItem struct {
	Expr  Expr
	Alias string
}

// Query is a parsed sampling query.
type Query struct {
	Select       []SelectItem
	From         string
	Where        Expr // nil if absent
	GroupBy      []GroupItem
	Supergroup   []string // group-by variable names; nil means ALL
	Having       Expr     // nil if absent
	CleaningWhen Expr     // nil if absent
	CleaningBy   Expr     // nil if absent
	// Explain is the EXPLAIN prefix mode: "" (none), "plan" for a bare
	// EXPLAIN (render the compiled plan without running), or "analyze" for
	// EXPLAIN ANALYZE (run with per-stage cost profiling and report the
	// attribution). The prefix is a request to the runtime; the query
	// itself compiles and executes identically.
	Explain string
}

// String renders the query in re-parseable form.
func (q *Query) String() string {
	var b strings.Builder
	switch q.Explain {
	case "plan":
		b.WriteString("EXPLAIN\n")
	case "analyze":
		b.WriteString("EXPLAIN ANALYZE\n")
	}
	b.WriteString("SELECT ")
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		if s.Estimate {
			b.WriteString("ESTIMATE ")
		}
		b.WriteString(s.Expr.String())
		if s.Estimate {
			b.WriteString(" WITH ERROR")
		}
		if s.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(s.Alias)
		}
	}
	b.WriteString("\nFROM ")
	b.WriteString(q.From)
	if q.Where != nil {
		b.WriteString("\nWHERE ")
		b.WriteString(q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		b.WriteString("\nGROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.Expr.String())
			if g.Alias != "" {
				b.WriteString(" AS ")
				b.WriteString(g.Alias)
			}
		}
	}
	if q.Supergroup != nil {
		b.WriteString("\nSUPERGROUP BY ")
		b.WriteString(strings.Join(q.Supergroup, ", "))
	}
	if q.Having != nil {
		b.WriteString("\nHAVING ")
		b.WriteString(q.Having.String())
	}
	if q.CleaningWhen != nil {
		b.WriteString("\nCLEANING WHEN ")
		b.WriteString(q.CleaningWhen.String())
	}
	if q.CleaningBy != nil {
		b.WriteString("\nCLEANING BY ")
		b.WriteString(q.CleaningBy.String())
	}
	return b.String()
}
