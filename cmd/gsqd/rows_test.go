package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"streamop/internal/overload"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// refRowJSON is the encoder handleRows used to have — a map per row through
// encoding/json — kept as the reference the appending encoder is held to.
func refRowJSON(cols []string, row tuple.Tuple) ([]byte, error) {
	m := make(map[string]any, len(cols))
	for i, c := range cols {
		if i >= len(row) {
			break
		}
		switch v := row[i]; v.Kind() {
		case value.Bool:
			m[c] = v.Bool()
		case value.Int:
			m[c] = v.AsInt()
		case value.Uint:
			m[c] = v.AsUint()
		case value.Float:
			m[c] = v.AsFloat()
		case value.String:
			m[c] = v.Str()
		default:
			m[c] = nil
		}
	}
	return json.Marshal(m)
}

// decodeObject decodes one JSON object keeping every number's literal, so
// that two encodings compare equal only if they wrote the same digits.
func decodeObject(t *testing.T, b []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("decoding %q: %v", b, err)
	}
	if dec.More() {
		t.Fatalf("trailing data after the object in %q", b)
	}
	return m
}

// TestRowEncoderMatchesEncodingJSON: for every value kind and the strings
// and numbers JSON encoders get wrong, the appended object decodes to what
// the old map-and-reflection encoder's output decodes to — and sits on one
// line, which is what lets it be an SSE data field.
func TestRowEncoderMatchesEncodingJSON(t *testing.T) {
	vals := []value.Value{
		{}, // Null
		value.NewBool(true), value.NewBool(false),
		value.NewInt(0), value.NewInt(-1), value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64),
		value.NewUint(0), value.NewUint(167837698), value.NewUint(math.MaxUint64),
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(1), value.NewFloat(-2.5),
		value.NewFloat(1e21), value.NewFloat(-1e21), value.NewFloat(9.99e20), value.NewFloat(1e-7),
		value.NewFloat(1e-6), value.NewFloat(-1.5e-9), value.NewFloat(1e100), value.NewFloat(1e-100),
		value.NewFloat(math.MaxFloat64), value.NewFloat(math.SmallestNonzeroFloat64),
		value.NewFloat(0.1), value.NewFloat(1.0 / 3), value.NewFloat(48128),
		value.NewString(""), value.NewString("plain"), value.NewString(`say "hi" \ bye`),
		value.NewString("line\nbreak\r\ttab"), value.NewString("\x00\x01\x1f\x7f"),
		value.NewString("<script>&amp;</script>"), value.NewString("héllo, 世界 🌍"),
		value.NewString("bad\xffutf8\xc0\xaf"), value.NewString("cut\xe4\xb8"), value.NewString("\u2028\u2029"),
	}
	for k := value.Null; k <= value.String; k++ {
		seen := false
		for _, v := range vals {
			seen = seen || v.Kind() == k
		}
		if !seen {
			t.Errorf("no case of kind %s", k)
		}
	}
	check := func(cols []string, row tuple.Tuple) {
		t.Helper()
		got := objectOf(cols, row)
		if bytes.ContainsAny(got, "\r\n") {
			t.Errorf("cols %q row %v: object spans lines: %q", cols, row, got)
		}
		ref, err := refRowJSON(cols, row)
		if err != nil {
			t.Fatalf("reference encoder on %v: %v", row, err)
		}
		if g, w := decodeObject(t, got), decodeObject(t, ref); !reflect.DeepEqual(g, w) {
			t.Errorf("cols %q row %v:\n appended  %s\n reference %s", cols, row, got, ref)
		}
	}
	for _, v := range vals {
		check([]string{"v"}, tuple.Tuple{v})
	}
	// Every value in one row, under keys that need escaping themselves.
	cols := make([]string, len(vals))
	for i := range cols {
		cols[i] = `c"<` + strconv.Itoa(i) + ">\n"
	}
	check(cols, tuple.Tuple(vals))
	// A row shorter than the column list stops at its last value; no
	// columns is the empty object; a repeated name keeps the last value.
	check([]string{"a", "b", "c"}, tuple.Tuple{value.NewInt(1), value.NewString("x")})
	check([]string{"a"}, nil)
	check(nil, tuple.Tuple{value.NewInt(1)})
	check([]string{"a", "a"}, tuple.Tuple{value.NewInt(1), value.NewInt(2)})

	// Keys come out in column order, not sorted.
	if got, want := string(objectOf([]string{"tb", "srcIP", "sum"},
		tuple.Tuple{value.NewUint(1754649600), value.NewUint(167837698), value.NewInt(48128)})),
		`{"tb":1754649600,"srcIP":167837698,"sum":48128}`; got != want {
		t.Errorf("object = %s, want %s", got, want)
	}
	// What JSON has no literal for is null, where encoding/json gives up.
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		row := tuple.Tuple{value.NewFloat(f), value.NewInt(7)}
		if _, err := refRowJSON([]string{"f", "n"}, row); err == nil {
			t.Fatalf("encoding/json accepted %v; the exception is no longer needed", f)
		}
		if got, want := string(objectOf([]string{"f", "n"}, row)), `{"f":null,"n":7}`; got != want {
			t.Errorf("%v: object = %s, want %s", f, got, want)
		}
	}
}

// sseEvent is one frame of a rows stream as a client sees it.
type sseEvent struct {
	id    int64 // -1 when the frame has no id line
	event string
	data  string
}

// sseStream reads frames off an open rows response, skipping pings.
type sseStream struct {
	t  *testing.T
	br *bufio.Reader
}

func openRows(t *testing.T, base, name string) (*sseStream, func()) {
	t.Helper()
	resp, err := http.Get(base + "/queries/" + name + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("rows status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("rows content-type = %q", ct)
	}
	return &sseStream{t: t, br: bufio.NewReader(resp.Body)}, func() { resp.Body.Close() }
}

// openRowsIdle is openRows on a server not yet started, returning once the
// request has subscribed: the stream then carries every row the query
// delivers, from its first.
func openRowsIdle(t *testing.T, sv *server, base, name string) (*sseStream, func()) {
	t.Helper()
	st, hangUp := openRows(t, base, name)
	h := sv.e.Lookup(name)
	for deadline := time.Now().Add(5 * time.Second); h.Subscribers() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			hangUp()
			t.Fatal("the rows request never subscribed")
		}
	}
	return st, hangUp
}

// next returns the next frame; io.EOF only between frames.
func (s *sseStream) next() (sseEvent, error) {
	ev := sseEvent{id: -1}
	inFrame := false
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			if err == io.EOF && (inFrame || line != "") {
				err = io.ErrUnexpectedEOF
			}
			return ev, err
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			if inFrame {
				return ev, nil
			}
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "id: "):
			inFrame = true
			if ev.id, err = strconv.ParseInt(line[4:], 10, 64); err != nil {
				s.t.Fatalf("bad id line %q", line)
			}
		case strings.HasPrefix(line, "event: "):
			inFrame = true
			ev.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			inFrame = true
			ev.data = line[6:]
		default:
			s.t.Fatalf("unexpected line %q in the stream", line)
		}
	}
}

// within fails the test unless fn returns inside d: a frame the server
// holds back shows up as this timeout, not as a hung test.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: nothing within %v", what, d)
	}
}

// TestSSENonFiniteFloatKeepsStreaming: a division by 0.0 puts ±Inf and NaN
// into a row. encoding/json refuses those, and handleRows used to return on
// the error with "id: N\nevent: row\ndata: " already written — the tenant's
// stream ended mid-frame on its first row. They go out as null and the
// stream carries on.
func TestSSENonFiniteFloatKeepsStreaming(t *testing.T) {
	_, base := newTestServer(t, &testFeed{passEvery: 10, throttle: time.Millisecond})
	resp, body := postJSON(t, base+"/queries", installRequest{
		Name:  "ratio",
		Query: "SELECT time, len/0.0 AS r, (len-len)/0.0 AS n, len FROM PKT WHERE proto = 6",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install status = %d, body %v", resp.StatusCode, body)
	}
	st, hangUp := openRows(t, base, "ratio")
	defer hangUp()
	for want := int64(0); want < 3; want++ {
		ev, err := st.next()
		if err != nil {
			t.Fatalf("stream ended at row %d: %v", want, err)
		}
		if ev.event != "row" || ev.id != want {
			t.Fatalf("frame %d: event %q id %d", want, ev.event, ev.id)
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ev.data), &m); err != nil {
			t.Fatalf("row %d payload %q: %v", want, ev.data, err)
		}
		if r, ok := m["r"]; !ok || r != nil {
			t.Errorf("row %d: r (+Inf) = %v, want null", want, r)
		}
		if n, ok := m["n"]; !ok || n != nil {
			t.Errorf("row %d: n (NaN) = %v, want null", want, n)
		}
		if m["len"] != 1500.0 {
			t.Errorf("row %d: len = %v, want 1500", want, m["len"])
		}
	}
}

// gateFeed hands out the packets it was given and then holds its next call
// until released, where it ends: a tap that goes quiet.
type gateFeed struct {
	pkts    []trace.Packet
	release chan struct{}
}

func (f *gateFeed) Next() (trace.Packet, bool) {
	if len(f.pkts) == 0 {
		<-f.release
		return trace.Packet{}, false
	}
	p := f.pkts[0]
	f.pkts = f.pkts[1:]
	return p, true
}

// TestSSELoneRowFlushedAtOnce: coalescing must not hold a row back waiting
// for company. One packet of a ring's worth matches, the tap then goes
// quiet, and the row reaches the client long before the 15 s ping, with no
// successor to push it out; the end event follows once the feed ends.
func TestSSELoneRowFlushedAtOnce(t *testing.T) {
	src := &testFeed{}
	pkts := make([]trace.Packet, 1024) // the test server's ring: the pump fills it before the first step
	for i := range pkts {
		pkts[i], _ = src.Next()
	}
	pkts[7].Proto, pkts[7].Len = 6, 1500
	feed := &gateFeed{pkts: pkts, release: make(chan struct{})}
	sv, base, start := newIdleTestServer(t, feed)
	release := sync.OnceFunc(func() { close(feed.release) })
	t.Cleanup(release) // before the server's own clean-up drains the session

	resp, body := postJSON(t, base+"/queries", installRequest{Name: "lone", Query: testVia})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install status = %d, body %v", resp.StatusCode, body)
	}
	st, hangUp := openRowsIdle(t, sv, base, "lone")
	defer hangUp()
	h := sv.e.Lookup("lone")
	start()

	within(t, 5*time.Second, "the lone row", func() {
		ev, err := st.next()
		if err != nil {
			t.Errorf("stream ended before the row: %v", err)
			return
		}
		if ev.event != "row" || ev.id != 0 || !strings.Contains(ev.data, `"len":1500`) {
			t.Errorf("first frame = %+v, want row 0 with len 1500", ev)
		}
	})
	if got := h.RowsOut(); got != 1 {
		t.Fatalf("query delivered %d rows, want exactly 1 (the test's premise)", got)
	}
	release()
	within(t, 5*time.Second, "the end event", func() {
		if ev, err := st.next(); err != nil || ev.event != "end" {
			t.Errorf("after the feed ended: frame %+v, err %v; want the end event", ev, err)
		}
	})
}

// TestSSEBurstCompleteThroughUninstall: a blocking tenant on an unpaced
// tap is sent several coalescing buffers' worth of rows and is uninstalled
// while they are in flight. Every row arrives, ids contiguous from 0, each
// payload whole, and the stream closes with the end event — nothing is
// left behind in a buffer that was not flushed.
func TestSSEBurstCompleteThroughUninstall(t *testing.T) {
	sv, base, start := newIdleTestServer(t, &testFeed{passEvery: 1})
	resp, body := postJSON(t, base+"/queries", installRequest{
		Name: "burst", Query: "SELECT time, srcIP, len, uts FROM tap", Via: testVia, Block: true,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install status = %d, body %v", resp.StatusCode, body)
	}
	h := sv.e.Lookup("burst")
	st, hangUp := openRowsIdle(t, sv, base, "burst")
	defer hangUp()
	start()

	const uninstallAt = 4000 // rows; at ~90 bytes a frame, ten buffers' worth
	deleted := make(chan error, 1)
	var rows, wire int64
	within(t, 60*time.Second, "the burst", func() {
		for {
			ev, err := st.next()
			if err != nil {
				t.Errorf("stream ended after %d rows without the end event: %v", rows, err)
				return
			}
			if ev.event == "end" {
				break
			}
			if ev.event != "row" || ev.id != rows {
				t.Errorf("frame %d: event %q id %d", rows, ev.event, ev.id)
				return
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(ev.data), &m); err != nil || m["len"] != 1500.0 {
				t.Errorf("row %d payload %q: %v", rows, ev.data, err)
				return
			}
			rows++
			wire += int64(len(ev.data))
			if rows == uninstallAt {
				// From another goroutine: the DELETE returns once the pump
				// gets to it, and the pump is blocked on this reader.
				go func() {
					req, _ := http.NewRequest(http.MethodDelete, base+"/queries/burst", nil)
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						resp.Body.Close()
						if resp.StatusCode != http.StatusNoContent {
							err = io.ErrUnexpectedEOF
						}
					}
					deleted <- err
				}()
			}
		}
		if _, err := st.next(); err != io.EOF {
			t.Errorf("after the end event: %v, want EOF", err)
		}
	})
	if err := <-deleted; err != nil {
		t.Fatalf("DELETE /queries/burst: %v", err)
	}
	if rows < uninstallAt || wire < 4*sseFlushBytes {
		t.Fatalf("%d rows, %d payload bytes: the burst never outgrew the coalescing buffer", rows, wire)
	}
	if got := h.RowsOut(); got != rows {
		t.Errorf("client saw %d rows, the query delivered %d", rows, got)
	}
}

// BenchmarkSSERows is the wire's cost per row in tree: a blocking tenant
// over an unpaced selection tap — the engine's share is a few dozen ns —
// streamed over loopback to a reader that only counts frames. ns/op is
// ns per row delivered; allocations are the whole process's, client and
// pump included.
func BenchmarkSSERows(b *testing.B) {
	_, base := newTestServer(b, &testFeed{passEvery: 1})
	resp, body := postJSON(b, base+"/queries", installRequest{
		Name: "bench", Query: "SELECT time, srcIP, len, uts FROM tap", Via: testVia, Block: true,
	})
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("install status = %d, body %v", resp.StatusCode, body)
	}
	rows, err := http.Get(base + "/queries/bench/rows")
	if err != nil {
		b.Fatal(err)
	}
	defer rows.Body.Close()
	br := bufio.NewReaderSize(rows.Body, 64<<10)
	var wire int64
	skip := func(n int) {
		for n > 0 {
			line, err := br.ReadSlice('\n')
			if err != nil {
				b.Fatalf("stream ended: %v", err)
			}
			wire += int64(len(line))
			if len(line) == 1 { // the blank line that ends a frame
				n--
			}
		}
	}
	skip(1000) // connection set up, buffers grown
	wire = 0
	b.ReportAllocs()
	b.ResetTimer()
	skip(b.N)
	b.StopTimer()
	b.ReportMetric(float64(wire)/float64(b.N), "B/row")
}

// TestFrameSubscriberCounts: the SSE handlers subscribe to frames, and the
// counts an operator reads — the handle's, the quota snapshot's, GET
// /queries/{name}'s and /debug/state's — see them while they stream. On
// one tap, "lossy" (drop-oldest, WarnLag) has a client that reads
// and one that never does, which falls behind, loses rows and lags;
// "dead" (Block, DetachAfter) has a client that never reads and is
// detached.
func TestFrameSubscriberCounts(t *testing.T) {
	sv, base := newTestServer(t, &testFeed{passEvery: 1, throttle: time.Millisecond})
	for _, req := range []installRequest{
		{Name: "lossy", Query: "SELECT time, srcIP, len, uts FROM tap", Via: testVia, Buffer: 4096, Quota: &quotaRequest{WarnLag: 1000}},
		{Name: "dead", Query: "SELECT time, srcIP, len, uts FROM tap", Buffer: 64, Block: true, Quota: &quotaRequest{DetachAfter: 1000}},
	} {
		if resp, body := postJSON(t, base+"/queries", req); resp.StatusCode != http.StatusCreated {
			t.Fatalf("install %s = %d: %v", req.Name, resp.StatusCode, body)
		}
	}
	reader, hangUpReader := openRows(t, base, "lossy")
	defer hangUpReader()
	go io.Copy(io.Discard, reader.br)
	_, hangUpIdle := openRows(t, base, "lossy")
	defer hangUpIdle()
	_, hangUpDead := openRows(t, base, "dead")
	defer hangUpDead()

	lossy, dead := sv.e.Lookup("lossy"), sv.e.Lookup("dead")
	var got string
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var li, di queryInfo
		getJSON(t, base+"/queries/lossy", &li)
		getJSON(t, base+"/queries/dead", &di)
		var state struct {
			Engine struct {
				Quotas []overload.QuotaSnapshot `json:"quotas"`
			} `json:"engine"`
		}
		getJSON(t, base+"/debug/state", &state)
		byName := map[string]overload.QuotaSnapshot{}
		for _, q := range state.Engine.Quotas {
			byName[q.Query] = q
		}
		lq, dq := lossy.QuotaState(), dead.QuotaState()
		got = fmt.Sprintf("handle lossy subs %d dropped %d lagging %d/%d; dead subs %d detached %d/%d; "+
			"GET lossy subs %d dropped %d quota %+v; GET dead subs %d quota %+v; /debug/state %+v",
			lossy.Subscribers(), lossy.Dropped(), lq.Subscribers, lq.Lagging, dead.Subscribers(), dead.DetachedSubs(), dq.Detached,
			li.Subscribers, li.Dropped, li.Quota, di.Subscribers, di.Quota, byName)
		if lossy.Subscribers() == 2 && lossy.Dropped() > 0 && lq.Subscribers == 2 && lq.Lagging == 1 &&
			dead.Subscribers() == 0 && dead.DetachedSubs() == 1 && dq.Detached == 1 &&
			li.Subscribers == 2 && li.Dropped > 0 && li.Quota != nil && li.Quota.Subscribers == 2 && li.Quota.Lagging == 1 &&
			di.Subscribers == 0 && di.Quota != nil && di.Quota.Detached == 1 &&
			byName["lossy"].Subscribers == 2 && byName["lossy"].Lagging == 1 && byName["dead"].Detached == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the counts never showed the frame subscribers: %s", got)
		}
	}
	t.Log(got)
}
