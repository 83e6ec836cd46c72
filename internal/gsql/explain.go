package gsql

import (
	"fmt"
	"strings"
)

// Describe renders a human-readable explanation of the compiled plan: the
// operator kind, grouping structure, window delimiters, supergroup key,
// the aggregates, superaggregates and stateful-function states the query
// uses, and the output columns. cmd/gsq surfaces it via -explain.
func (p *Plan) Describe() string {
	var b strings.Builder
	if p.IsSelection {
		b.WriteString("selection operator (no GROUP BY)\n")
	} else {
		b.WriteString("sampling operator\n")
	}
	fmt.Fprintf(&b, "  input stream:    %s\n", p.Schema)

	if !p.IsSelection {
		fmt.Fprintf(&b, "  group by:        %s\n", strings.Join(p.GroupNames, ", "))
		if len(p.OrderedIdx) > 0 {
			names := make([]string, len(p.OrderedIdx))
			for i, idx := range p.OrderedIdx {
				names[i] = p.GroupNames[idx]
			}
			fmt.Fprintf(&b, "  window closes on: %s\n", strings.Join(names, ", "))
		} else {
			b.WriteString("  window closes on: (never; end of stream only)\n")
		}
		if len(p.SupergroupIdx) > 0 {
			names := make([]string, len(p.SupergroupIdx))
			for i, idx := range p.SupergroupIdx {
				names[i] = p.GroupNames[idx]
			}
			fmt.Fprintf(&b, "  supergroup key:  %s\n", strings.Join(names, ", "))
		} else {
			b.WriteString("  supergroup key:  ALL (one supergroup per window)\n")
		}
	}

	clause := func(name string, c Compiled, e Expr) {
		if c == nil {
			return
		}
		fmt.Fprintf(&b, "  %-16s %s\n", name+":", e.String())
	}
	q := p.Query
	clause("where", p.Where, orNil(q.Where))
	clause("having", p.Having, orNil(q.Having))
	clause("cleaning when", p.CleaningWhen, orNil(q.CleaningWhen))
	clause("cleaning by", p.CleaningBy, orNil(q.CleaningBy))

	if len(p.Aggs) > 0 {
		names := make([]string, len(p.Aggs))
		for i, a := range p.Aggs {
			names[i] = a.Display
		}
		fmt.Fprintf(&b, "  aggregates:      %s\n", strings.Join(names, ", "))
	}
	if len(p.Supers) > 0 {
		names := make([]string, len(p.Supers))
		for i, s := range p.Supers {
			names[i] = s.Display
		}
		fmt.Fprintf(&b, "  superaggregates: %s\n", strings.Join(names, ", "))
	}
	if len(p.States) > 0 {
		names := make([]string, len(p.States))
		for i, s := range p.States {
			names[i] = s.Type.Name
		}
		fmt.Fprintf(&b, "  sfun states:     %s (per supergroup, handed off across windows)\n",
			strings.Join(names, ", "))
	}
	if len(p.Estimates) > 0 {
		names := make([]string, len(p.Estimates))
		for i, e := range p.Estimates {
			names[i] = fmt.Sprintf("%s -> %s{,_stderr,_ci_lo,_ci_hi,_ess}", e.Display, e.Name)
		}
		fmt.Fprintf(&b, "  estimates:       %s (Horvitz-Thompson, 95%% CI)\n", strings.Join(names, ", "))
	}
	fmt.Fprintf(&b, "  output columns:  %s\n", strings.Join(p.SelectNames, ", "))
	return b.String()
}

// orNil guards against describing a clause whose AST is absent.
func orNil(e Expr) Expr {
	if e == nil {
		return &Lit{}
	}
	return e
}
