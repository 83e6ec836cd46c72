package operator_test

import (
	"testing"

	"streamop/internal/sfunlib"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// fuzzSchema is FuzzWalk's stream: an ordered timestamp, a small integer,
// a column whose kind changes from row to row (Int, Uint, Float, String or
// NULL) and a string tag.
var fuzzSchema = tuple.MustSchema("S",
	tuple.Field{Name: "ts", Kind: value.Uint, Ordering: tuple.Increasing},
	tuple.Field{Name: "k", Kind: value.Int},
	tuple.Field{Name: "v"},
	tuple.Field{Name: "tag", Kind: value.String},
)

// fuzzQueries cover the walk's clause forms: a stateless WHERE over the
// mixed column, a semi-stateful WHERE with a cleaning cascade, a plan that
// does not vectorize, GROUP BY over the string and the mixed column (its
// aggregate argument errs once ts reaches 8), and selections with a
// stateful SELECT and a stateful WHERE.
var fuzzQueries = []string{
	`SELECT tb, k, count(*), sum(k) FROM S WHERE v > 3 OR k = 1 GROUP BY ts/4 AS tb, k`,
	`SELECT tb, k, tag, sum(k + 3) FROM S WHERE ssample(k + 3, 4, 2, 10) = TRUE GROUP BY ts/4 AS tb, k, tag
	 HAVING ssfinal_clean(sum(k + 3), count_distinct$(*)) = TRUE
	 CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE CLEANING BY ssclean_with(sum(k + 3)) = TRUE`,
	`SELECT tb, k, HX FROM S WHERE HX <= Kth_smallest_value$(HX, 3) GROUP BY ts/4 AS tb, k, H(v) AS HX
	 SUPERGROUP BY tb, k HAVING HX <= Kth_smallest_value$(HX, 3)
	 CLEANING WHEN count_distinct$(*) >= 3 CLEANING BY HX <= Kth_smallest_value$(HX, 3)`,
	`SELECT tb, tag, v, count(*), max(k), sum(10 / ((ts + 1) % 9)) FROM S GROUP BY ts/4 AS tb, tag, v`,
	`SELECT ts, v, bssample(k + 3, 4) FROM S WHERE k > 0`,
	`SELECT ts, k * 2, v FROM S WHERE bssample(k + 3, 4) = TRUE`,
}

// fuzzRows decodes data: its first byte picks the query, its second the
// batch size, and every four bytes after them make a row.
func fuzzRows(data []byte) (src string, size int, rows []tuple.Tuple) {
	if len(data) < 2 {
		return "", 0, nil
	}
	src, size = fuzzQueries[int(data[0])%len(fuzzQueries)], 1+int(data[1])%70
	tags := []string{"a", "bb", ""}
	var ts uint64
	for b := data[2:]; len(b) >= 4 && len(rows) < 400; b = b[4:] {
		if b[0]%8 == 0 {
			ts++
		}
		var v value.Value
		switch n := int64(b[2] / 5); b[2] % 5 {
		case 0:
			v = value.NewInt(n - 20)
		case 1:
			v = value.NewUint(uint64(n))
		case 2:
			v = value.NewFloat(float64(n) / 2)
		case 3:
			v = value.NewString(tags[n%3])
		}
		rows = append(rows, tuple.Tuple{value.NewUint(ts), value.NewInt(int64(b[1]%8) - 2), v, value.NewString(tags[b[3]%3])})
	}
	return src, size, rows
}

// FuzzWalk holds ProcessBatch, at the batch size the input names, to the
// oracle over rows decoded from the input.
func FuzzWalk(f *testing.F) {
	for q := range fuzzQueries {
		f.Add([]byte{byte(q), 6, 0, 1, 2, 3, 1, 4, 7, 0, 2, 0, 10, 1, 0, 7, 3, 2, 1, 2, 5, 1, 9, 0, 2, 5, 4, 1})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, size, rows := fuzzRows(data)
		if rows == nil {
			return
		}
		want := runOracle(compilePlan(t, src, fuzzSchema, sfunlib.Default(1)), rows, true)
		op, out := newEquivOp(t, src, fuzzSchema, 1)
		requireOracle(t, src, op, fuzzSchema, rows, size, true, out, want)
	})
}
