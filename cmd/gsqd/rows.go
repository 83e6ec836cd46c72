package main

import (
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"streamop/internal/engine"
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
// column names in SELECT order, ids counting from 0 per subscription. The
// rows come as frames (engine.Frame): each wake-up takes every frame
// queued and writes their rows straight from the typed columns,
// sseFlushBytes to a write, so a row that arrives on an idle stream goes
// out at once and the rows already waiting go out with it. The stream ends
// when the client disconnects, the query is uninstalled, or the session
// drains; a comment ping goes out every 15s so dead clients are noticed on
// an otherwise quiet query.
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
	sub := h.SubscribeFrames()
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ping := time.NewTicker(15 * time.Second)
	defer ping.Stop()
	enc := newRowEncoder(h.Columns())
	done := r.Context().Done()
	buf := make([]byte, 0, sseFlushBytes+1024)
	send := func() bool {
		_, err := w.Write(buf)
		fl.Flush()
		buf = buf[:0]
		return err == nil
	}
	var frames []engine.Frame
	for {
		select {
		case <-done:
			return
		case <-ping.C:
			buf = append(buf, ssePing...)
			if !send() {
				return
			}
			continue
		case <-sub.Ready():
		}
		// Take what is queued, and what queues meanwhile, until a take
		// comes back empty or a write went out.
		open, sent, wrote := true, true, false
		for took := true; took && open && !wrote; {
			frames, open = sub.TakeFrames(frames[:0])
			took = len(frames) > 0
			for _, f := range frames {
				for r := f.Lo; sent && r < f.Hi; {
					buf, r = enc.appendRows(buf, f.Cols(), r, f.Hi)
					if len(buf) >= sseFlushBytes {
						sent, wrote = send(), true
					}
				}
				f.Release()
			}
			if !sent {
				return
			}
		}
		if !open {
			buf = append(buf, sseEnd...)
		}
		if len(buf) > 0 && !send() {
			return
		}
		if !open {
			return
		}
	}
}

// mixedKinds marks a column whose rows do not share one kind.
const mixedKinds = value.Kind(0xff)

// rowEncoder renders a subscription's rows as SSE frames by appending to
// the caller's buffer straight from the typed columns: nothing is
// allocated per row, the keys, quoted once per connection, come out in the
// query's column order, and a column whose rows share one kind picks its
// writer once per run.
type rowEncoder struct {
	id    []byte       // "id: N", N the next row's id, counted up in place
	keys  [][]byte     // rowHead+`{"col":` for the first column, `,"col":` for the rest
	kinds []value.Kind // per column of the run being written
}

const rowHead = "\nevent: row\ndata: "

func newRowEncoder(cols []string) *rowEncoder {
	e := &rowEncoder{id: []byte("id: 0"), keys: make([][]byte, len(cols))}
	for i, c := range cols {
		key := []byte(",")
		if i == 0 {
			key = []byte(rowHead + "{")
		}
		e.keys[i] = append(appendJSONString(key, c), ':')
	}
	return e
}

// nextID counts the id line's decimal digits up by one.
func (e *rowEncoder) nextID() {
	for i := len(e.id) - 1; i >= len("id: "); i-- {
		if e.id[i] < '9' {
			e.id[i]++
			return
		}
		e.id[i] = '0'
	}
	e.id = append(e.id[:len("id: ")+1], e.id[len("id: "):]...)
	e.id[len("id: ")] = '1'
}

// appendRows appends rows lo, lo+1, ... of cols as the subscription's next
// "row" events, data one flat JSON object on one line, until hi or until
// the buffer holds sseFlushBytes, and returns the row to go on from. A
// float JSON has no literal for (±Inf, NaN) is null: one such value must
// not end the tenant's stream.
func (e *rowEncoder) appendRows(b []byte, cols []*tuple.Column, lo, hi int) ([]byte, int) {
	cols = cols[:min(len(cols), len(e.keys))]
	e.kinds = e.kinds[:0]
	for _, c := range cols {
		k, ok := c.Uniform()
		if !ok {
			k = mixedKinds
		}
		e.kinds = append(e.kinds, k)
	}
	for r := lo; r < hi; {
		b = append(b, e.id...)
		e.nextID()
		if len(cols) == 0 {
			b = append(b, rowHead+"{"...)
		}
		for c, col := range cols {
			b = append(b, e.keys[c]...)
			k := e.kinds[c]
			if k == mixedKinds {
				k = col.Kinds()[r]
			}
			switch k {
			case value.Int:
				b = appendInt(b, int64(col.Bits()[r]))
			case value.Uint:
				b = appendUint(b, col.Bits()[r])
			case value.Float:
				b = appendJSONFloat(b, math.Float64frombits(col.Bits()[r]))
			case value.Bool:
				if col.Bits()[r] != 0 {
					b = append(b, "true"...)
				} else {
					b = append(b, "false"...)
				}
			case value.String:
				b = appendJSONString(b, col.Str(r))
			default:
				b = append(b, "null"...)
			}
		}
		b = append(b, "}\n\n"...)
		if r++; len(b) >= sseFlushBytes {
			return b, r
		}
	}
	return b, hi
}

// digitPairs holds "00" to "99": appendUint writes two digits a step.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" + "20212223242526272829" + "30313233343536373839" +
	"40414243444546474849" + "50515253545556575859" + "60616263646566676869" +
	"70717273747576777879" + "80818283848586878889" + "90919293949596979899"

var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// appendUint appends u in decimal, as strconv.AppendUint does, writing the
// digits in place from the last, two at a time.
func appendUint(b []byte, u uint64) []byte {
	v := u | 1 // 0 has one digit, as 1 does
	n := (bits.Len64(v) * 1233) >> 12
	if v >= pow10[n] {
		n++
	}
	b = slices.Grow(b, n)
	i := len(b) + n
	b = b[:i]
	for u >= 100 {
		q := u / 100
		d := 2 * (u - 100*q)
		i -= 2
		b[i], b[i+1] = digitPairs[d], digitPairs[d+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// appendInt appends v in decimal, as strconv.AppendInt does.
func appendInt(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
	}
	return appendUint(b, u)
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
