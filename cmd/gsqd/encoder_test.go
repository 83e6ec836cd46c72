package main

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// refEncoder is the row-at-a-time encoder handleRows had before rows came
// as column frames — boxed values through a kind switch per value — kept
// as the reference the column encoder is held to byte for byte. It shares
// appendJSONFloat and appendJSONString with the encoder under test;
// TestRowEncoderMatchesEncodingJSON holds those to encoding/json.
type refEncoder struct {
	keys [][]byte // `"col":` per column
	id   uint64
}

func newRefEncoder(cols []string) *refEncoder {
	e := &refEncoder{keys: make([][]byte, len(cols))}
	for i, c := range cols {
		e.keys[i] = append(appendJSONString(nil, c), ':')
	}
	return e
}

func (e *refEncoder) appendFrame(b []byte, row tuple.Tuple) []byte {
	b = append(b, "id: "...)
	b = strconv.AppendUint(b, e.id, 10)
	e.id++
	b = append(b, "\nevent: row\ndata: "...)
	b = e.appendObject(b, row)
	return append(b, "\n\n"...)
}

func (e *refEncoder) appendObject(b []byte, row tuple.Tuple) []byte {
	b = append(b, '{')
	for i, v := range row[:min(len(e.keys), len(row))] {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, e.keys[i]...)
		b = refJSONValue(b, v)
	}
	return append(b, '}')
}

func refJSONValue(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.Bool:
		return strconv.AppendBool(b, v.Bool())
	case value.Int:
		return strconv.AppendInt(b, v.Int(), 10)
	case value.Uint:
		return strconv.AppendUint(b, v.Uint(), 10)
	case value.Float:
		return appendJSONFloat(b, v.Float())
	case value.String:
		return appendJSONString(b, v.Str())
	}
	return append(b, "null"...)
}

// columnsOf lays rows out as columns, one per field of the widest row
// (shorter rows padded with NULL).
func columnsOf(rows []tuple.Tuple) []*tuple.Column {
	width := 0
	for _, r := range rows {
		width = max(width, len(r))
	}
	cols := make([]*tuple.Column, width)
	for c := range cols {
		cols[c] = new(tuple.Column)
		for _, r := range rows {
			var v value.Value
			if c < len(r) {
				v = r[c]
			}
			cols[c].AppendValue(v)
		}
	}
	return cols
}

// objectOf is the column encoder's JSON object for one row.
func objectOf(names []string, row tuple.Tuple) []byte {
	b, _ := newRowEncoder(names).appendRows(nil, columnsOf([]tuple.Tuple{row}), 0, 1)
	b = b[bytes.Index(b, []byte("data: "))+len("data: "):]
	return bytes.TrimSuffix(b, []byte("\n\n"))
}

// encodeBoth writes rows through the reference, a row at a time, and
// through the column encoder, as one run of columns cut into pieces of
// step rows, resuming wherever appendRows stops at sseFlushBytes.
func encodeBoth(names []string, rows []tuple.Tuple, step int) (ref, got []byte) {
	re := newRefEncoder(names)
	for _, r := range rows {
		ref = re.appendFrame(ref, r)
	}
	cols := columnsOf(rows)
	ce := newRowEncoder(names)
	var buf []byte
	for lo := 0; lo < len(rows); lo += step {
		hi := min(lo+step, len(rows))
		for r := lo; r < hi; {
			buf, r = ce.appendRows(buf, cols, r, hi)
			if len(buf) >= sseFlushBytes {
				got, buf = append(got, buf...), buf[:0]
			}
		}
	}
	return ref, append(got, buf...)
}

// wireValues has a case of every kind and the edges of each writer.
func wireValues() []value.Value {
	vals := []value.Value{{}, value.NewBool(true), value.NewBool(false)}
	for _, i := range []int64{0, 1, -1, 9, 10, -10, 99, 100, -101, 12345, math.MinInt64, math.MaxInt64, math.MinInt64 + 1} {
		vals = append(vals, value.NewInt(i))
	}
	for _, u := range []uint64{0, 1, 9, 10, 99, 100, 999, 1000, 167837698, 1 << 63, math.MaxUint64 - 1, math.MaxUint64} {
		vals = append(vals, value.NewUint(u))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1e21, -1e21, 9.99e20, 1e-7, 1e-6, -1.5e-9,
		1e100, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3, 48128, math.Inf(1), math.Inf(-1), math.NaN()} {
		vals = append(vals, value.NewFloat(f))
	}
	for _, s := range []string{"", "plain", `say "hi" \ bye`, "line\nbreak\r\ttab", "\x00\x01\x1f\x7f",
		"<b>&amp;</b>", "héllo, 世界 🌍", "bad\xffutf8\xc0\xaf", "cut\xe4\xb8", "\u2028\u2029"} {
		vals = append(vals, value.NewString(s))
	}
	return vals
}

// TestColumnEncoderMatchesRowEncoder: the bytes the column encoder writes
// for a run of rows are the bytes the row encoder wrote for the same rows
// one by one — ids included — for uniform columns of every kind, for
// mixed-kind columns, for any cut of the run into pieces and across the
// coalescing buffer's stops.
func TestColumnEncoderMatchesRowEncoder(t *testing.T) {
	vals := wireValues()
	check := func(what string, names []string, rows []tuple.Tuple) {
		t.Helper()
		for _, step := range []int{1, 3, 512} {
			if ref, got := encodeBoth(names, rows, step); !bytes.Equal(ref, got) {
				i := 0
				for i < min(len(ref), len(got)) && ref[i] == got[i] {
					i++
				}
				t.Fatalf("%s, pieces of %d: bytes differ at %d:\n column %q\n    row %q",
					what, step, i, got[max(0, i-80):min(len(got), i+80)], ref[max(0, i-80):min(len(ref), i+80)])
			}
		}
	}
	// Each value alone, then each kind as a uniform column.
	for _, v := range vals {
		check("one value "+v.String(), []string{"v"}, []tuple.Tuple{{v}})
	}
	for k := value.Null; k <= value.String; k++ {
		var rows []tuple.Tuple
		for _, v := range vals {
			if v.Kind() == k {
				rows = append(rows, tuple.Tuple{v, value.NewUint(uint64(len(rows)))})
			}
		}
		if len(rows) == 0 {
			t.Fatalf("no case of kind %s", k)
		}
		check("uniform "+k.String(), []string{"v", "n"}, rows)
	}
	// Every value in one mixed-kind column, and in one row under keys
	// that need escaping themselves.
	var mixed []tuple.Tuple
	for _, v := range vals {
		mixed = append(mixed, tuple.Tuple{value.NewInt(7), v})
	}
	check("mixed kinds", []string{"a", "b"}, mixed)
	names := make([]string, len(vals))
	for i := range names {
		names[i] = `c"<` + strconv.Itoa(i) + ">\n"
	}
	check("every value in a row", names, []tuple.Tuple{tuple.Tuple(vals)})
	// More columns than names, more names than columns, none of either.
	check("extra columns", []string{"a"}, mixed)
	check("extra names", []string{"a", "b", "c"}, mixed)
	check("no names", nil, mixed)

	// A long random run: thousands of rows, so the coalescing buffer stops
	// the column encoder mid-run many times; columns uniform in a random
	// kind or mixed.
	r := xrand.New(3)
	var rows []tuple.Tuple
	kinds := []int{0, 1, 2, 3, 4, 5, -1, -1} // a kind, or -1 for mixed
	width := 8
	colKind := make([]int, width)
	for c := range colKind {
		colKind[c] = kinds[r.Intn(len(kinds))]
	}
	colKind[0], colKind[1] = -1, int(value.Uint)
	for i := 0; i < 5000; i++ {
		row := make(tuple.Tuple, width)
		for c := range row {
			for {
				v := vals[r.Intn(len(vals))]
				if colKind[c] < 0 || int(v.Kind()) == colKind[c] {
					row[c] = v
					break
				}
			}
			if colKind[c] == int(value.Uint) {
				row[c] = value.NewUint(r.Uint64() >> r.Intn(64))
			}
		}
		rows = append(rows, row)
	}
	check("random run", []string{"m", "u", "c2", "c3", "c4", "c5", "c6", "c7"}, rows)
}

// TestAppendUintMatchesStrconv: the in-place decimal writer against
// strconv over every value below 10^6, every power of ten and its
// neighbours, random values of every length, and the ends of both ranges.
func TestAppendUintMatchesStrconv(t *testing.T) {
	check := func(u uint64) {
		prefix := []byte("id: ")
		if got, want := appendUint(prefix, u), strconv.AppendUint([]byte("id: "), u, 10); !bytes.Equal(got, want) {
			t.Fatalf("appendUint(%d) = %q, want %q", u, got, want)
		}
		i := int64(u)
		if got, want := appendInt(nil, i), strconv.AppendInt(nil, i, 10); !bytes.Equal(got, want) {
			t.Fatalf("appendInt(%d) = %q, want %q", i, got, want)
		}
	}
	for u := uint64(0); u < 1_000_000; u++ {
		check(u)
	}
	for p := uint64(1); ; p *= 10 {
		check(p - 1)
		check(p)
		check(p + 1)
		if p > math.MaxUint64/10 {
			break
		}
	}
	r := xrand.New(7)
	for i := 0; i < 200_000; i++ {
		check(r.Uint64() >> r.Intn(64))
	}
	for _, u := range []uint64{math.MaxUint64, math.MaxUint64 - 1, 1 << 63, 1<<63 - 1, 1<<63 + 1} {
		check(u)
	}
	// Written in place: into a buffer with room, nothing moves.
	b := make([]byte, 0, 64)
	if got := appendUint(b, math.MaxUint64); &got[0] != &b[:1][0] {
		t.Error("appendUint reallocated a buffer that had room")
	}
}
