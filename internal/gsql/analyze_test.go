package gsql

import (
	"fmt"
	"strings"
	"testing"

	"streamop/internal/agg"
	"streamop/internal/sfun"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

func testSchema() *tuple.Schema {
	return tuple.MustSchema("PKT",
		tuple.Field{Name: "time", Kind: value.Uint, Ordering: tuple.Increasing},
		tuple.Field{Name: "srcIP", Kind: value.Uint},
		tuple.Field{Name: "destIP", Kind: value.Uint},
		tuple.Field{Name: "len", Kind: value.Int},
		tuple.Field{Name: "uts", Kind: value.Uint},
	)
}

// testRegistry registers minimal stand-ins for the algorithm SFUN families
// so the paper queries analyze.
func testRegistry(t *testing.T) *sfun.Registry {
	t.Helper()
	r := sfun.NewRegistry()
	pass := func(any, []value.Value) (value.Value, error) { return value.NewBool(true), nil }
	num := func(any, []value.Value) (value.Value, error) { return value.NewFloat(1), nil }
	r.MustRegisterState(&sfun.StateType{Name: "ss_state", Init: func(any) any { return &struct{}{} }})
	r.MustRegisterState(&sfun.StateType{Name: "rs_state", Init: func(any) any { return &struct{}{} }})
	r.MustRegisterState(&sfun.StateType{Name: "hh_state", Init: func(any) any { return &struct{}{} }})
	for _, f := range []sfun.Func{
		{Name: "ssample", State: "ss_state", Call: pass},
		{Name: "ssthreshold", State: "ss_state", Call: num},
		{Name: "ssdo_clean", State: "ss_state", Call: pass},
		{Name: "ssclean_with", State: "ss_state", Call: pass},
		{Name: "ssfinal_clean", State: "ss_state", Call: pass},
		{Name: "rsample", State: "rs_state", Call: pass},
		{Name: "rsdo_clean", State: "rs_state", Call: pass},
		{Name: "rsclean_with", State: "rs_state", Call: pass},
		{Name: "rsfinal_clean", State: "rs_state", Call: pass},
		{Name: "local_count", State: "hh_state", Call: pass},
		{Name: "current_bucket", State: "hh_state", Call: num},
		{Name: "UMAX", Call: func(_ any, args []value.Value) (value.Value, error) {
			if value.Compare(args[0], args[1]) >= 0 {
				return args[0], nil
			}
			return args[1], nil
		}},
		{Name: "H", Call: func(_ any, args []value.Value) (value.Value, error) {
			return value.NewUint(value.Hash(args[0], 0)), nil
		}},
	} {
		f := f
		r.MustRegisterFunc(&f)
	}
	return r
}

func analyzeQuery(t *testing.T, src string) *Plan {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p, err := Analyze(q, testSchema(), testRegistry(t))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return p
}

func TestAnalyzeSubsetSum(t *testing.T) {
	p := analyzeQuery(t, subsetSumQuery)
	if p.IsSelection {
		t.Error("grouped query marked as selection")
	}
	if len(p.GroupBy) != 4 {
		t.Errorf("GroupBy = %d", len(p.GroupBy))
	}
	if len(p.OrderedIdx) != 1 || p.OrderedIdx[0] != 0 {
		t.Errorf("OrderedIdx = %v (time/20 should be ordered)", p.OrderedIdx)
	}
	if len(p.SupergroupIdx) != 0 {
		t.Errorf("SupergroupIdx = %v, want ALL", p.SupergroupIdx)
	}
	// sum(len) is referenced in SELECT, HAVING and CLEANING BY: one def.
	if len(p.Aggs) != 1 || p.Aggs[0].Name != "sum" {
		t.Errorf("Aggs = %+v", p.Aggs)
	}
	// count_distinct$(*) in HAVING and CLEANING WHEN: one def.
	if len(p.Supers) != 1 || p.Supers[0].Spec.Name != "count_distinct$" {
		t.Errorf("Supers = %+v", p.Supers)
	}
	if len(p.States) != 1 {
		t.Errorf("States = %d", len(p.States))
	}
	if len(p.SelectNames) != 4 || p.SelectNames[0] != "uts" {
		t.Errorf("SelectNames = %v", p.SelectNames)
	}
}

func TestAnalyzeMinHash(t *testing.T) {
	p := analyzeQuery(t, minHashQuery)
	// Supergroup (tb, srcIP): tb is ordered, excluded; srcIP remains.
	if len(p.SupergroupIdx) != 1 || p.SupergroupIdx[1-1] != 1 {
		t.Errorf("SupergroupIdx = %v", p.SupergroupIdx)
	}
	if len(p.Supers) != 2 {
		t.Errorf("Supers = %d, want kth$ and count_distinct$", len(p.Supers))
	}
	var kth *SuperDef
	for i := range p.Supers {
		if p.Supers[i].Spec.Name == "kth_smallest_value$" {
			kth = &p.Supers[i]
		}
	}
	if kth == nil {
		t.Fatal("kth_smallest_value$ not found")
	}
	if len(kth.Consts) != 1 || kth.Consts[0].Int() != 100 {
		t.Errorf("kth consts = %v", kth.Consts)
	}
	if kth.Arg == nil {
		t.Error("kth arg missing")
	}
	if len(p.States) != 0 {
		t.Errorf("min-hash query needs no states, got %d", len(p.States))
	}
}

func TestAnalyzeHeavyHitter(t *testing.T) {
	p := analyzeQuery(t, heavyHitterQuery)
	// sum(len), count(*), first(current_bucket()): three aggregates.
	if len(p.Aggs) != 3 {
		t.Errorf("Aggs = %+v", p.Aggs)
	}
	if len(p.States) != 1 {
		t.Errorf("States = %d", len(p.States))
	}
}

func TestAnalyzeSelectionQuery(t *testing.T) {
	p := analyzeQuery(t, "SELECT uts, len FROM PKT WHERE ssample(len, 100) = TRUE")
	if !p.IsSelection {
		t.Error("selection query not detected")
	}
	if len(p.States) != 1 {
		t.Errorf("selection States = %d", len(p.States))
	}
	ctx := &Ctx{
		Tuple:  tuple.Tuple{value.NewUint(1), value.NewUint(2), value.NewUint(3), value.NewInt(99), value.NewUint(5)},
		States: []any{&struct{}{}},
	}
	v, err := p.Where(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Truth() {
		t.Error("WHERE evaluated false")
	}
	if v, _ := p.SelectExprs[1](ctx); v.Int() != 99 {
		t.Errorf("select len = %v", v)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"wrong stream", "SELECT x FROM TCP GROUP BY time", "reads from"},
		{"unknown column", "SELECT nope FROM PKT GROUP BY nope", "unknown name"},
		{"agg in where", "SELECT tb FROM PKT WHERE sum(len) > 1 GROUP BY time as tb", "not allowed in WHERE"},
		{"unknown func", "SELECT mystery(len) FROM PKT GROUP BY time as tb", "unknown function"},
		{"unknown super", "SELECT bogus$(*) FROM PKT GROUP BY time as tb", "unknown superaggregate"},
		{"supergroup not groupby", "SELECT tb FROM PKT GROUP BY time as tb SUPERGROUP BY srcIP", "not a group-by variable"},
		{"cleaning without groupby", "SELECT len FROM PKT CLEANING WHEN TRUE", "require GROUP BY"},
		{"dup groupvar", "SELECT tb FROM PKT GROUP BY time as tb, len as tb", "duplicate group-by"},
		{"star misuse", "SELECT UMAX(*, 1) FROM PKT GROUP BY time as tb", "not a valid argument"},
		{"sum star", "SELECT sum(*) FROM PKT GROUP BY time as tb", "only count(*)"},
		{"super const", "SELECT kth_smallest_value$(srcIP, len) FROM PKT GROUP BY time as tb, srcIP", "literal constant"},
		{"bad kth k", "SELECT kth_smallest_value$(srcIP, 0) FROM PKT GROUP BY time as tb, srcIP", "k >= 1"},
		{"tuple in select", "SELECT len FROM PKT GROUP BY time as tb", "unknown name"},
		{"agg arity", "SELECT sum(len, len) FROM PKT GROUP BY time as tb", "exactly one argument"},
	}
	schema := testSchema()
	reg := testRegistry(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			_, err = Analyze(q, schema, reg)
			if err == nil {
				t.Fatalf("Analyze accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// The aggregates that add their argument up refuse a String at analysis
// time (sum over a String used to reach agg and panic there); the ones
// that compare or count accept it.
func TestAnalyzeRefusesStringSums(t *testing.T) {
	schema := tuple.MustSchema("LOG",
		tuple.Field{Name: "time", Kind: value.Uint, Ordering: tuple.Increasing},
		tuple.Field{Name: "host", Kind: value.String},
		tuple.Field{Name: "bytes", Kind: value.Int},
	)
	reg := testRegistry(t)
	analyze := func(sel, groupBy string) error {
		q, err := Parse("SELECT tb, " + sel + " FROM LOG GROUP BY time AS tb" + groupBy)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		_, err = Analyze(q, schema, reg)
		return err
	}
	for _, tc := range []struct{ sel, groupBy, agg, arg string }{
		{"sum(host)", "", "sum", "host"},
		{"avg(host)", "", "avg", "host"},
		{"var(host)", "", "var", "host"},
		{"stddev(host)", "", "stddev", "host"},
		{"sum('x')", "", "sum", "'x'"},
		{"sum$(host)", "", "sum$", "host"},
		{"sum(h)", ", host AS h", "sum", "h"},
		{"sum(host)", ", host", "sum", "host"},
	} {
		err := analyze(tc.sel, tc.groupBy)
		if err == nil {
			t.Errorf("Analyze accepted %s", tc.sel)
			continue
		}
		if !strings.Contains(err.Error(), tc.agg+" needs a number") || !strings.Contains(err.Error(), "argument "+tc.arg+" is a String") {
			t.Errorf("%s: error %q does not name the aggregate and the argument", tc.sel, err)
		}
	}
	for _, sel := range []string{"count(host)", "min(host)", "max(host)", "first(host)", "sum(bytes)", "avg(bytes + 1)", "sum$(bytes)"} {
		if err := analyze(sel, ""); err != nil {
			t.Errorf("Analyze refused %s: %v", sel, err)
		}
	}
}

func TestCompiledExpressionEvaluation(t *testing.T) {
	p := analyzeQuery(t, `
SELECT tb, srcIP, sum(len), count(*)
FROM PKT
WHERE len > 100
GROUP BY time/60 as tb, srcIP`)

	sumAgg := p.Aggs[0].New()
	cntAgg := p.Aggs[1].New()
	sumAgg.Reset(0)
	cntAgg.Reset(0)
	ctx := &Ctx{
		Tuple:     tuple.Tuple{value.NewUint(120), value.NewUint(7), value.NewUint(8), value.NewInt(500), value.NewUint(9)},
		GroupVals: []value.Value{value.NewUint(2), value.NewUint(7)},
		Aggs:      &agg.Slot{Cols: []agg.Column{sumAgg, cntAgg}},
	}
	// WHERE
	v, err := p.Where(ctx)
	if err != nil || !v.Truth() {
		t.Fatalf("WHERE = %v, %v", v, err)
	}
	// Group-by expressions
	if v, _ := p.GroupBy[0](ctx); v.Uint() != 2 {
		t.Errorf("tb = %v", v)
	}
	// Aggregate arg evaluation + select
	av, err := p.Aggs[0].Arg(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sumAgg.Update(0, av)
	cntAgg.Update(0, value.Value{})
	if v, _ := p.SelectExprs[2](ctx); v.Int() != 500 {
		t.Errorf("sum(len) = %v", v)
	}
	if v, _ := p.SelectExprs[3](ctx); v.Int() != 1 {
		t.Errorf("count(*) = %v", v)
	}
}

func TestShortCircuit(t *testing.T) {
	// AND/OR must not evaluate the right side when decided; the right side
	// here errors (division by zero).
	p := analyzeQuery(t, "SELECT tb FROM PKT WHERE len < 0 AND len/0 = 1 GROUP BY time as tb")
	ctx := &Ctx{Tuple: tuple.Tuple{value.NewUint(1), value.NewUint(2), value.NewUint(3), value.NewInt(10), value.NewUint(5)}}
	v, err := p.Where(ctx)
	if err != nil {
		t.Fatalf("AND short-circuit failed: %v", err)
	}
	if v.Truth() {
		t.Error("WHERE true")
	}
	p2 := analyzeQuery(t, "SELECT tb FROM PKT WHERE len > 0 OR len/0 = 1 GROUP BY time as tb")
	v, err = p2.Where(ctx)
	if err != nil || !v.Truth() {
		t.Fatalf("OR short-circuit: %v, %v", v, err)
	}
}

func TestIsOrderedExpr(t *testing.T) {
	schema := testSchema()
	cases := []struct {
		src  string
		want bool
	}{
		{"time", true},
		{"time/20", true},
		{"time/20 + 1", true},
		{"-time", true},
		{"srcIP", false},
		{"time + srcIP", false},
		{"time % 60", false}, // cyclic, not monotone
		{"H(time)", false},   // function of time, not provably monotone
		{"5", false},         // no ordered attribute at all
	}
	for _, tc := range cases {
		e, err := ParseExpr(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := isOrderedExpr(e, schema); got != tc.want {
			t.Errorf("isOrderedExpr(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestAggregateDedup(t *testing.T) {
	p := analyzeQuery(t, `
SELECT tb, sum(len), sum(len), count(*)
FROM PKT
GROUP BY time as tb
HAVING sum(len) > 10`)
	if len(p.Aggs) != 2 {
		t.Errorf("Aggs = %d, want dedup to 2", len(p.Aggs))
	}
}

func TestNullLiteralAndComparisons(t *testing.T) {
	p := analyzeQuery(t, "SELECT tb FROM PKT WHERE len <> 0 AND NOT (len = 0) GROUP BY time as tb")
	ctx := &Ctx{Tuple: tuple.Tuple{value.NewUint(1), value.NewUint(2), value.NewUint(3), value.NewInt(10), value.NewUint(5)}}
	v, err := p.Where(ctx)
	if err != nil || !v.Truth() {
		t.Fatalf("WHERE = %v, %v", v, err)
	}
}

func TestSuperaggregateEmptyArgs(t *testing.T) {
	// The paper's reservoir query writes count_distinct$() without the *.
	p := analyzeQuery(t, `
SELECT tb, count_distinct$()
FROM PKT
GROUP BY time/60 as tb, srcIP
CLEANING WHEN count_distinct$() >= 10
CLEANING BY count(*) > 0`)
	if len(p.Supers) != 1 || p.Supers[0].Spec.Name != "count_distinct$" {
		t.Errorf("Supers = %+v", p.Supers)
	}
	if p.Supers[0].Arg != nil {
		t.Error("empty-arg superaggregate has a per-tuple argument")
	}
}

// TestSelectRefs checks what the analyzer marks for the flush: a bare
// group-by variable (by alias or by name) or aggregate is a reference, any
// other item computed, and a group-by variable a computed item or an
// ESTIMATE weight reads marks the list (readsKey); one a reference, an
// aggregate's argument or HAVING reads does not.
func TestSelectRefs(t *testing.T) {
	for _, tc := range []struct {
		src      string
		refs     []SelectRef
		readsKey bool
	}{
		{`SELECT tb, srcIP, sum(len), count(*), sum(len) / count(*), srcIP * 2, tb AS t2
		  FROM PKT GROUP BY time/1 AS tb, srcIP`,
			[]SelectRef{{0, -1}, {1, -1}, {-1, 0}, {-1, 1}, {-1, -1}, {-1, -1}, {0, -1}}, true},
		{`SELECT uts, UMAX(sum(len), ssthreshold()) FROM PKT GROUP BY time/20 AS tb, uts`,
			[]SelectRef{{1, -1}, {-1, -1}}, false},
		{`SELECT tb, first(current_bucket()) FROM PKT GROUP BY time AS tb`,
			[]SelectRef{{0, -1}, {-1, 0}}, false},
		{`SELECT tb, srcIP + ssthreshold() FROM PKT GROUP BY time/1 AS tb, srcIP`,
			[]SelectRef{{0, -1}, {-1, -1}}, true},
		{`SELECT tb, sum(tb) * 2, count(*) / 2 FROM PKT GROUP BY time/1 AS tb, srcIP HAVING srcIP > 3`,
			[]SelectRef{{0, -1}, {-1, -1}, {-1, -1}}, false},
		{`SELECT tb, ESTIMATE srcIP WITH ERROR AS e FROM PKT GROUP BY time/1 AS tb, srcIP`,
			[]SelectRef{{0, -1}, {-1, -1}, {-1, -1}, {-1, -1}, {-1, -1}, {-1, -1}}, true},
	} {
		p := analyzeQuery(t, tc.src)
		if fmt.Sprint(p.SelectRefs) != fmt.Sprint(tc.refs) || p.SelectReadsKey != tc.readsKey {
			t.Errorf("%s: SelectRefs %v, readsKey %v; want %v, %v", tc.src, p.SelectRefs, p.SelectReadsKey, tc.refs, tc.readsKey)
		}
	}
}
