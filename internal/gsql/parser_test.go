package gsql

import (
	"strings"
	"testing"

	"streamop/internal/value"
)

// The four representative queries from the paper (§6.1, §6.6).
const (
	subsetSumQuery = `
SELECT uts, srcIP, destIP, UMAX(sum(len), ssthreshold())
FROM PKT
WHERE ssample(len, 100) = TRUE
GROUP BY time/20 as tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`

	heavyHitterQuery = `
SELECT tb, srcIP, sum(len), count(*)
FROM PKT
GROUP BY time/60 as tb, srcIP
CLEANING WHEN local_count(100) = TRUE
CLEANING BY count(*) >= current_bucket() - first(current_bucket())`

	minHashQuery = `
SELECT tb, srcIP, HX
FROM PKT
WHERE HX <= Kth_smallest_value$(HX, 100)
GROUP_BY time/60 as tb, srcIP, H(destIP) as HX
SUPERGROUP BY tb, srcIP
HAVING HX <= Kth_smallest_value$(HX, 100)
CLEANING WHEN count_distinct$(*) >= 100
CLEANING BY HX <= Kth_smallest_value$(HX, 100)`

	reservoirQuery = `
SELECT tb, srcIP, destIP
FROM PKT
WHERE rsample(100) = TRUE
GROUP_BY time/60 as tb, srcIP, destIP, uts
HAVING rsfinal_clean() = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with() = TRUE`
)

func TestParsePaperQueries(t *testing.T) {
	for name, src := range map[string]string{
		"subsetsum": subsetSumQuery, "heavyhitter": heavyHitterQuery,
		"minhash": minHashQuery, "reservoir": reservoirQuery,
	} {
		t.Run(name, func(t *testing.T) {
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if q.From != "PKT" {
				t.Errorf("From = %q", q.From)
			}
			if len(q.Select) == 0 || len(q.GroupBy) == 0 {
				t.Error("missing SELECT or GROUP BY items")
			}
		})
	}
}

func TestParseClauseDetails(t *testing.T) {
	q, err := Parse(subsetSumQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 4 {
		t.Errorf("Select items = %d", len(q.Select))
	}
	if len(q.GroupBy) != 4 {
		t.Errorf("GroupBy items = %d", len(q.GroupBy))
	}
	if q.GroupBy[0].Alias != "tb" {
		t.Errorf("GroupBy[0].Alias = %q", q.GroupBy[0].Alias)
	}
	if q.Where == nil || q.Having == nil || q.CleaningWhen == nil || q.CleaningBy == nil {
		t.Error("missing clause")
	}
	if q.Supergroup != nil {
		t.Error("unexpected SUPERGROUP")
	}
}

func TestParseSupergroup(t *testing.T) {
	q, err := Parse(minHashQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Supergroup) != 2 || q.Supergroup[0] != "tb" || q.Supergroup[1] != "srcIP" {
		t.Errorf("Supergroup = %v", q.Supergroup)
	}
}

func TestParseRoundTrip(t *testing.T) {
	// print -> reparse -> print must be a fixpoint.
	for _, src := range []string{subsetSumQuery, heavyHitterQuery, minHashQuery, reservoirQuery} {
		q1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q: %v", printed, err)
		}
		if q2.String() != printed {
			t.Errorf("round trip mismatch:\n%s\nvs\n%s", printed, q2.String())
		}
	}
}

func TestParseExplainPrefix(t *testing.T) {
	base := "SELECT tb, count(*) FROM PKT GROUP BY time/60 as tb"
	cases := []struct {
		src  string
		want string
	}{
		{base, ""},
		{"EXPLAIN " + base, "plan"},
		{"explain analyze " + base, "analyze"},
		{"EXPLAIN ANALYZE\n" + base, "analyze"},
	}
	for _, tc := range cases {
		q, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		if q.Explain != tc.want {
			t.Errorf("Parse(%q).Explain = %q, want %q", tc.src, q.Explain, tc.want)
		}
		// print -> reparse preserves the prefix.
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", q.String(), err)
		}
		if q2.Explain != tc.want {
			t.Errorf("reparse Explain = %q, want %q", q2.Explain, tc.want)
		}
	}
	// ANALYZE without EXPLAIN is not a keyword: it must fail as a bad
	// SELECT, not silently parse.
	if _, err := Parse("ANALYZE " + base); err == nil {
		t.Error("Parse accepted a bare ANALYZE prefix")
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"1 + 2 * 3", "(1 + (2 * 3))"},
		{"(1 + 2) * 3", "((1 + 2) * 3)"},
		{"a = b AND c < d OR e", "(((a = b) AND (c < d)) OR e)"},
		{"NOT a = b", "NOT (a = b)"},
		{"-x + 1", "(-x + 1)"},
		{"time/60", "(time / 60)"},
		{"f()", "f()"},
		{"count(*)", "count(*)"},
		{"kth$(x, 5)", "kth$(x, 5)"},
		{"x != y", "(x <> y)"},
		{"x % 4", "(x % 4)"},
		{"1.5e3", "1500"},
		{"'it''s'", "'it''s'"},
		{"TRUE AND FALSE", "(TRUE AND FALSE)"},
		{"a - b - c", "((a - b) - c)"},
	}
	for _, tc := range cases {
		e, err := ParseExpr(tc.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tc.src, err)
			continue
		}
		if got := e.String(); got != tc.want {
			t.Errorf("ParseExpr(%q).String() = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestParseLiterals(t *testing.T) {
	e, err := ParseExpr("18446744073709551615") // > MaxInt64: uint fallback
	if err != nil {
		t.Fatal(err)
	}
	if lit, ok := e.(*Lit); !ok || lit.Val.Kind() != value.Uint {
		t.Errorf("huge literal = %#v", e)
	}
	e, _ = ParseExpr("2.5")
	if lit, ok := e.(*Lit); !ok || lit.Val.Kind() != value.Float || lit.Val.Float() != 2.5 {
		t.Errorf("float literal = %#v", e)
	}
	e, _ = ParseExpr("NULL")
	if lit, ok := e.(*Lit); !ok || !lit.Val.IsNull() {
		t.Errorf("null literal = %#v", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT x",              // missing FROM
		"SELECT x FROM",         // missing stream
		"SELECT x FROM S WHERE", // missing predicate
		"SELECT x FROM S GROUP", // missing BY
		"SELECT x FROM S trailing garbage",
		"SELECT f( FROM S",
		"SELECT 'unterminated FROM S",
		"SELECT x ! y FROM S",
		"SELECT (x FROM S",
		"SELECT x FROM S GROUP BY g CLEANING NOW x",
		"SELECT x FROM S GROUP BY g CLEANING WHEN a CLEANING WHEN b",
		"SELECT x, FROM S",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("select x from S group by y having count(*) > 1 cleaning when true cleaning by false")
	if err != nil {
		t.Fatal(err)
	}
	if q.From != "S" || q.Having == nil || q.CleaningWhen == nil || q.CleaningBy == nil {
		t.Error("lower-case query parsed incompletely")
	}
}

func TestParseComments(t *testing.T) {
	q, err := Parse("SELECT x -- pick x\nFROM S -- the stream\n")
	if err != nil {
		t.Fatal(err)
	}
	if q.From != "S" {
		t.Errorf("From = %q", q.From)
	}
}

// TestParseRefusesExecutionHints checks that a query carries no execution
// setting: a ring's admission policy and a partial node's shard count are
// set on the engine, and a trailing SHARDS or OVERLOAD clause is a parse
// error that names it.
func TestParseRefusesExecutionHints(t *testing.T) {
	for _, src := range []string{
		"SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb SHARDS 4",
		"SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb, srcIP SHARDS 4",
		"SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb HAVING count(*) > 1 SHARDS 2",
		"SELECT time, len FROM PKT WHERE len > 100 OVERLOAD shed-sample",
		"SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb OVERLOAD block",
		"SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb CLEANING BY count(*) > 1 OVERLOAD drop-tail",
		"EXPLAIN SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb OVERLOAD block SHARDS 4",
	} {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded", src)
			continue
		}
		if msg := strings.ToUpper(err.Error()); !strings.Contains(msg, "SHARDS") && !strings.Contains(msg, "OVERLOAD") {
			t.Errorf("Parse(%q): %v, want an error naming the clause", src, err)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"SELECT #", "SELECT x FROM S WHERE a ! b"} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "gsql:") {
			t.Errorf("Parse(%q) err = %v", src, err)
		}
	}
}
