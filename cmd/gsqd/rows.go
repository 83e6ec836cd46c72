package main

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"streamop/internal/tuple"
	"streamop/internal/value"
)

// sseFlushBytes bounds how much a connection's frame buffer coalesces
// before it is written out: a few hundred rows, so that a window's burst
// costs a few dozen writes and a slow client is never more than this far
// behind the subscription it is draining.
const sseFlushBytes = 32 << 10

const (
	ssePing = ": ping\n\n"
	sseEnd  = "event: end\ndata: {}\n\n"
)

// handleRows streams a query's output rows as Server-Sent Events: one
// "row" event per output row, data = a JSON object keyed by the query's
// column names in SELECT order, ids counting from 0 per subscription. A
// row that arrives on an idle stream is written and flushed at once; rows
// that are already waiting behind it go out with it, sseFlushBytes to a
// write. The stream ends when the client disconnects, the query is
// uninstalled, or the session drains; a comment ping goes out every 15s so
// dead clients are noticed on an otherwise quiet query.
func (s *server) handleRows(w http.ResponseWriter, r *http.Request) {
	h := s.e.Lookup(r.PathValue("name"))
	if h == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no query named %q", r.PathValue("name")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	sub := h.Subscribe()
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ping := time.NewTicker(15 * time.Second)
	defer ping.Stop()
	enc := newRowEncoder(h.Columns())
	rows := sub.C()
	done := r.Context().Done()
	buf := make([]byte, 0, sseFlushBytes+1024)
	for {
		buf = buf[:0]
		open := true
		select {
		case <-done:
			return
		case <-ping.C:
			buf = append(buf, ssePing...)
		case row, more := <-rows:
			buf, open = enc.drain(buf, row, more, rows)
		}
		if _, err := w.Write(buf); err != nil {
			return
		}
		fl.Flush()
		if !open {
			return
		}
	}
}

// rowEncoder renders a subscription's rows as SSE frames by appending to
// the caller's buffer: nothing is allocated per row and the keys, quoted
// once per connection, come out in the query's column order.
type rowEncoder struct {
	keys [][]byte // `"col":` per column
	id   uint64
}

func newRowEncoder(cols []string) *rowEncoder {
	e := &rowEncoder{keys: make([][]byte, len(cols))}
	for i, c := range cols {
		e.keys[i] = append(appendJSONString(nil, c), ':')
	}
	return e
}

// appendFrame appends row as the subscription's next "row" event.
func (e *rowEncoder) appendFrame(b []byte, row tuple.Tuple) []byte {
	b = append(b, "id: "...)
	b = strconv.AppendUint(b, e.id, 10)
	e.id++
	b = append(b, "\nevent: row\ndata: "...)
	b = e.appendObject(b, row)
	return append(b, "\n\n"...)
}

// drain appends the row just received and the rows already waiting behind
// it on rows — never waiting for one — until the buffer holds
// sseFlushBytes, and the end event once rows has closed (open false). It
// reports whether the stream goes on.
func (e *rowEncoder) drain(b []byte, row tuple.Tuple, open bool, rows <-chan tuple.Tuple) ([]byte, bool) {
	for open {
		b = e.appendFrame(b, row)
		if len(b) >= sseFlushBytes {
			return b, true
		}
		select {
		case row, open = <-rows:
		default:
			return b, true
		}
	}
	return append(b, sseEnd...), false
}

// appendObject appends row as one flat JSON object on one line.
func (e *rowEncoder) appendObject(b []byte, row tuple.Tuple) []byte {
	b = append(b, '{')
	for i, v := range row[:min(len(e.keys), len(row))] {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, e.keys[i]...)
		b = appendJSONValue(b, v)
	}
	return append(b, '}')
}

// appendJSONValue appends v as encoding/json would write the Go value of
// its kind, except that a float JSON has no literal for (±Inf, NaN) is
// null: one such value must not end the tenant's stream.
func appendJSONValue(b []byte, v value.Value) []byte {
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

// appendJSONFloat follows encoding/json (and ES6): shortest digits that
// round-trip, exponent form only below 1e-6 and from 1e21 up.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// strconv pads the exponent to two digits: e-07 is e-7 in JSON.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string: quotes, backslashes and
// control bytes escaped (so the object stays on its one data: line),
// invalid UTF-8 replaced by U+FFFD as encoding/json does. '<', '>' and '&'
// go out as they are: the stream is not HTML.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(b, s[start:i]...)
				b = append(b, `\ufffd`...)
				start = i + 1
			}
			i += size
			continue
		}
		if c >= 0x20 && c != '"' && c != '\\' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
