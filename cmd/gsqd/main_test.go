package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamop/internal/trace"
)

// testFeed is an endless synthetic feed: 1ms of simulated time per
// packet, 1 in passEvery packets a 1500-byte TCP packet (what testVia
// selects), self-throttled so the pump doesn't saturate a core while the
// test does HTTP work.
type testFeed struct {
	n         int64
	passEvery int64
	throttle  time.Duration // sleep this long every 128 packets
}

func (f *testFeed) Next() (trace.Packet, bool) {
	f.n++
	if f.throttle > 0 && f.n%128 == 0 {
		time.Sleep(f.throttle)
	}
	p := trace.Packet{
		Time:    uint64(f.n) * uint64(time.Millisecond),
		SrcIP:   uint32(f.n % 251),
		DstIP:   uint32(f.n % 17),
		SrcPort: uint16(f.n % 1000),
		DstPort: 443,
		Proto:   17,
		Len:     64,
	}
	if f.passEvery > 0 && f.n%f.passEvery == 0 {
		p.Proto = 6
		p.Len = 1500
	}
	return p, true
}

const testVia = "SELECT time, srcIP, len, uts FROM PKT WHERE proto = 6 AND len >= 1500"

// newIdleTestServer builds a gsqd server over the given feed without
// starting its session, so a test can install queries and open streams
// before the first packet; the returned URL serves the full mux and start
// begins pumping.
func newIdleTestServer(t testing.TB, feed trace.Feed) (sv *server, base string, start func()) {
	t.Helper()
	sv, err := newServer(config{Feed: "steady", Duration: 0.01, Seed: 1, Ring: 1024, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	sv.feed = feed
	ctx, cancel := context.WithCancel(context.Background())
	ts := httptest.NewServer(sv.mux)
	t.Cleanup(func() {
		ts.Close()
		cancel()
		_ = sv.e.Drain()
	})
	return sv, ts.URL, func() {
		t.Helper()
		if err := sv.start(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// newTestServer is newIdleTestServer, started.
func newTestServer(t testing.TB, feed trace.Feed) (*server, string) {
	t.Helper()
	sv, base, start := newIdleTestServer(t, feed)
	start()
	return sv, base
}

func postJSON(t testing.TB, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return resp
}

// sseRows opens GET /queries/{name}/rows and returns the first n row
// events' decoded payloads.
func sseRows(t *testing.T, base, name string, n int) []map[string]any {
	t.Helper()
	st, hangUp := openRows(t, base, name)
	defer hangUp()
	var rows []map[string]any
	for len(rows) < n {
		ev, err := st.next()
		if err != nil {
			t.Fatalf("SSE stream ended after %d rows (want %d): %v", len(rows), n, err)
		}
		if ev.event != "row" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ev.data), &m); err != nil {
			t.Fatalf("bad row payload %q: %v", ev.data, err)
		}
		rows = append(rows, m)
	}
	return rows
}

func TestServerRoutes(t *testing.T) {
	_, base := newTestServer(t, &testFeed{passEvery: 10, throttle: time.Millisecond})

	// Health before any install.
	var health map[string]any
	if resp := getJSON(t, base+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if health["status"] != "ok" || health["session_active"] != true {
		t.Fatalf("healthz = %v", health)
	}

	// Install a tap-backed query.
	resp, body := postJSON(t, base+"/queries", installRequest{
		Name: "heavy", Query: "SELECT srcIP, len FROM tap", Via: testVia,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install status = %d: %v", resp.StatusCode, body)
	}
	if body["name"] != "heavy" || body["via"] != "tap" {
		t.Fatalf("install response = %v", body)
	}
	if ex, _ := body["explain"].(string); !strings.Contains(ex, "srcIP") {
		t.Fatalf("explain = %q", ex)
	}

	// Second query over the same tap: still one low-level node.
	if resp, body := postJSON(t, base+"/queries", installRequest{
		Name: "lens", Query: "SELECT len FROM tap", Via: testVia,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("second install status = %d: %v", resp.StatusCode, body)
	}
	getJSON(t, base+"/healthz", &health)
	if health["taps"] != float64(1) || health["queries"] != float64(2) {
		t.Fatalf("healthz after installs = %v", health)
	}

	// Bad installs.
	if resp, _ := postJSON(t, base+"/queries", installRequest{Name: "x"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("install without query = %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, base+"/queries", installRequest{
		Name: "heavy", Query: "SELECT len FROM tap",
	}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate install = %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, base+"/queries", installRequest{
		Name: "y", Query: "SELECT nosuchcol FROM tap",
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad column install = %d", resp.StatusCode)
	}

	// List: both queries, with EXPLAIN output.
	var list struct {
		Queries []queryInfo `json:"queries"`
	}
	getJSON(t, base+"/queries", &list)
	if len(list.Queries) != 2 {
		t.Fatalf("list = %+v", list)
	}
	for _, q := range list.Queries {
		if q.Explain == "" {
			t.Fatalf("query %s listed without explain", q.Name)
		}
	}

	// Single query.
	var one queryInfo
	if resp := getJSON(t, base+"/queries/heavy", &one); resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	if one.Name != "heavy" || len(one.Columns) != 2 {
		t.Fatalf("get = %+v", one)
	}
	var errBody map[string]any
	if resp := getJSON(t, base+"/queries/nosuch", &errBody); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get missing = %d", resp.StatusCode)
	}

	// SSE delivery to two concurrent subscribers of the same query.
	var wg sync.WaitGroup
	results := make([][]map[string]any, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sseRows(t, base, "heavy", 3)
		}(i)
	}
	wg.Wait()
	for i, rows := range results {
		if len(rows) != 3 {
			t.Fatalf("subscriber %d got %d rows", i, len(rows))
		}
		for _, r := range rows {
			if r["len"] != float64(1500) {
				t.Fatalf("subscriber %d row = %v", i, r)
			}
		}
	}

	// SSE for a missing query 404s.
	if resp, err := http.Get(base + "/queries/nosuch/rows"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("rows for missing query = %d", resp.StatusCode)
		}
	}

	// Telemetry surface on the same listener.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || !strings.Contains(string(mb), "streamop_session_queries") {
		t.Fatalf("/metrics status=%d body=%.120s", mresp.StatusCode, mb)
	}
	var state map[string]map[string]any
	getJSON(t, base+"/debug/state", &state)
	sess, _ := state["engine"]["session"].(map[string]any)
	if sess == nil || sess["active"] != true {
		t.Fatalf("/debug/state session = %v", state["engine"]["session"])
	}
	var plan map[string][]map[string]any
	getJSON(t, base+"/debug/plan", &plan)
	if len(plan["engine"]) != 3 { // tap + 2 queries
		t.Fatalf("/debug/plan has %d nodes", len(plan["engine"]))
	}

	// Uninstall: 204, then the query is gone and an open SSE stream ends.
	stream, err := http.Get(base + "/queries/lens/rows")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, base+"/queries/lens", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}
	if resp := getJSON(t, base+"/queries/lens", &errBody); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted query still present: %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, base+"/queries/lens", nil)
	if dresp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete status = %d", dresp.StatusCode)
	}
	endSeen := false
	br := bufio.NewReader(stream.Body)
	deadline := time.Now().Add(10 * time.Second)
	for !endSeen && time.Now().Before(deadline) {
		line, err := br.ReadString('\n')
		if err != nil {
			break // server closed the stream: fine too
		}
		if strings.TrimRight(line, "\n") == "event: end" {
			endSeen = true
		}
	}
	// Either an explicit end event or a closed stream ends the subscriber.
	_ = endSeen
}

func TestServerStress1000QueriesSSE(t *testing.T) {
	// Acceptance: gsqd hosts >= 1000 concurrently installed standing
	// queries over one shared live feed — installed at runtime, one
	// deduplicated low-level tap (node count sublinear in query count) —
	// and every subscriber receives rows over SSE.
	const nq = 1000
	sv, base := newTestServer(t, &testFeed{passEvery: 400, throttle: 500 * time.Microsecond})

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	const workers = 64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nq; i += workers {
				b, _ := json.Marshal(installRequest{
					Name:   fmt.Sprintf("tenant%04d", i),
					Query:  "SELECT srcIP, len FROM tap",
					Via:    testVia,
					Buffer: 8,
				})
				resp, err := client.Post(base+"/queries", "application/json", bytes.NewReader(b))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusCreated {
						err = fmt.Errorf("tenant %d: install status %d", i, resp.StatusCode)
					}
				}
				if err != nil {
					firstErr.Store(&err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		t.Fatal(*p)
	}

	if got := len(sv.e.Installed()); got != nq {
		t.Fatalf("installed = %d, want %d", got, nq)
	}
	// Deduplication: 1000 queries share ONE low-level node.
	if sv.e.TapCount() != 1 {
		t.Fatalf("tap count = %d, want 1", sv.e.TapCount())
	}
	if n := len(sv.e.Nodes()); n != nq+1 {
		t.Fatalf("node count = %d for %d queries, want %d", n, nq, nq+1)
	}

	// Every tenant gets rows over SSE, in waves of concurrent streams.
	const wave = 100
	for start := 0; start < nq; start += wave {
		for i := start; i < start+wave && i < nq; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name := fmt.Sprintf("tenant%04d", i)
				req, _ := http.NewRequest(http.MethodGet, base+"/queries/"+name+"/rows", nil)
				resp, err := client.Do(req)
				if err != nil {
					firstErr.Store(&err)
					return
				}
				defer resp.Body.Close()
				br := bufio.NewReader(resp.Body)
				got := false
				for !got {
					line, err := br.ReadString('\n')
					if err != nil {
						err = fmt.Errorf("tenant %d stream ended without a row: %v", i, err)
						firstErr.Store(&err)
						return
					}
					got = strings.TrimRight(line, "\n") == "event: row"
				}
			}(i)
		}
		wg.Wait()
		if p := firstErr.Load(); p != nil {
			t.Fatal(*p)
		}
	}

	// Churn: uninstall half at runtime; the pump keeps running, the tap
	// survives for the remaining half.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 2 * w; i < nq; i += 2 * workers {
				req, _ := http.NewRequest(http.MethodDelete, base+fmt.Sprintf("/queries/tenant%04d", i), nil)
				resp, err := client.Do(req)
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent {
						err = fmt.Errorf("tenant %d: delete status %d", i, resp.StatusCode)
					}
				}
				if err != nil {
					firstErr.Store(&err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		t.Fatal(*p)
	}
	if got := len(sv.e.Installed()); got != nq/2 {
		t.Fatalf("installed after churn = %d, want %d", got, nq/2)
	}
	if sv.e.TapCount() != 1 {
		t.Fatal("tap torn down while subscribers remain")
	}
	// A survivor still gets rows.
	rows := sseRows(t, base, "tenant0001", 1)
	if len(rows) != 1 {
		t.Fatalf("survivor rows = %d", len(rows))
	}
	if !sv.e.SessionActive() {
		t.Fatal("session died during stress")
	}
}

func TestLoopFeed(t *testing.T) {
	laps := 0
	lf := &loopFeed{gen: func() (trace.Feed, error) {
		laps++
		return trace.NewReplay([]trace.Packet{
			{Time: 1_000_000, Len: 100},
			{Time: 2_000_000, Len: 200},
		}), nil
	}}
	var last uint64
	for i := 0; i < 10; i++ {
		p, ok := lf.Next()
		if !ok {
			t.Fatal("loop feed ended")
		}
		if p.Time <= last {
			t.Fatalf("timestamp went backwards across laps: %d after %d", p.Time, last)
		}
		last = p.Time
	}
	if laps < 5 {
		t.Fatalf("expected ~5 laps, got %d", laps)
	}
}

func TestOpenFeed(t *testing.T) {
	if _, err := openFeed(config{Feed: "nosuch"}); err == nil {
		t.Fatal("unknown feed accepted")
	}
	f, err := openFeed(config{Feed: "steady", Duration: 0.1, Seed: 1, Loop: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*loopFeed); ok {
		t.Fatal("-loop=false still wrapped in loopFeed")
	}
	lf, err := openFeed(config{Feed: "steady", Duration: 0.01, Seed: 1, Loop: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lf.(*loopFeed); !ok {
		t.Fatalf("loop feed is %T", lf)
	}
}
