package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/profile"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// infiniteFeed produces packets forever (until stopped): timestamps
// advance 1ms per packet, and 1 in passEvery packets is a 1500-byte TCP
// packet (the ones the test tap selects).
type infiniteFeed struct {
	n         int64
	passEvery int64
	stop      atomic.Bool
}

func (f *infiniteFeed) Next() (trace.Packet, bool) {
	if f.stop.Load() {
		return trace.Packet{}, false
	}
	f.n++
	p := trace.Packet{
		Time:    uint64(f.n) * uint64(time.Millisecond),
		SrcIP:   uint32(f.n % 251),
		DstIP:   uint32(f.n % 17),
		SrcPort: uint16(f.n % 1000),
		DstPort: 80,
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

// waitRows blocks until the subscription yields at least want rows.
func waitRows(t *testing.T, sub *engine.Subscription, want int) []tuple.Tuple {
	t.Helper()
	var rows []tuple.Tuple
	timeout := time.After(10 * time.Second)
	for len(rows) < want {
		select {
		case row, ok := <-sub.C():
			if !ok {
				t.Fatalf("subscription closed after %d rows, want %d", len(rows), want)
			}
			rows = append(rows, row)
		case <-timeout:
			t.Fatalf("timed out with %d rows, want %d", len(rows), want)
		}
	}
	return rows
}

func TestSessionInstallUninstallLive(t *testing.T) {
	e, _ := engine.New(1024)
	feed := &infiniteFeed{passEvery: 10}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}

	// Install a tap-backed query while the pump is live.
	h1, err := e.Install("q1", "SELECT srcIP, len FROM flows", engine.InstallOptions{Via: testVia})
	if err != nil {
		t.Fatal(err)
	}
	if got := h1.Columns(); len(got) != 2 || got[0] != "srcIP" || got[1] != "len" {
		t.Fatalf("columns = %v", got)
	}
	if h1.Via() != "flows" {
		t.Fatalf("via = %q", h1.Via())
	}
	sub1 := h1.Subscribe()
	rows := waitRows(t, sub1, 5)
	for _, row := range rows {
		if row[1].AsInt() != 1500 {
			t.Fatalf("tap leaked len %v", row[1])
		}
	}

	// Second query on the same tap: deduplicated, not duplicated.
	h2, err := e.Install("q2", "SELECT len FROM flows", engine.InstallOptions{Via: testVia})
	if err != nil {
		t.Fatal(err)
	}
	if e.TapCount() != 1 {
		t.Fatalf("tap count = %d, want 1", e.TapCount())
	}
	sub2 := h2.Subscribe()
	waitRows(t, sub2, 3)

	// A conflicting Via for the same tap name is rejected.
	if _, err := e.Install("q3", "SELECT len FROM flows",
		engine.InstallOptions{Via: "SELECT time, srcIP, len, uts FROM PKT WHERE proto = 17"}); err == nil {
		t.Fatal("conflicting Via accepted")
	}
	// Unknown tap without a Via is rejected.
	if _, err := e.Install("q4", "SELECT len FROM nosuch", engine.InstallOptions{}); err == nil {
		t.Fatal("install against missing tap accepted")
	}
	// Duplicate names are rejected.
	if _, err := e.Install("q1", "SELECT len FROM flows", engine.InstallOptions{}); err == nil {
		t.Fatal("duplicate query name accepted")
	}

	// Uninstall q1: its subscription closes, q2 keeps receiving.
	if err := e.Uninstall("q1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-sub1.C():
			open = ok
		case <-deadline:
			t.Fatal("q1 subscription still open after uninstall")
		}
	}
	waitRows(t, sub2, 3)
	if e.Lookup("q1") != nil {
		t.Fatal("q1 still installed")
	}
	if e.Lookup("q2") == nil {
		t.Fatal("q2 gone")
	}
	if err := e.Uninstall("q1"); err == nil {
		t.Fatal("double uninstall accepted")
	}

	// Last subscriber gone: the tap tears down too.
	if err := e.Uninstall("q2"); err != nil {
		t.Fatal(err)
	}
	if e.TapCount() != 0 {
		t.Fatalf("tap count = %d after last uninstall", e.TapCount())
	}
	if n := len(e.Nodes()); n != 0 {
		t.Fatalf("%d nodes left after all uninstalls", n)
	}

	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if e.SessionActive() {
		t.Fatal("session still active after Drain")
	}
}

func TestSessionDirectPKTQuery(t *testing.T) {
	e, _ := engine.New(1024)
	// Install before Start: the query is waiting when the pump begins.
	h, err := e.Install("direct", "SELECT uts, len FROM PKT WHERE len >= 1500", engine.InstallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Via() != "" {
		t.Fatalf("direct query reports via %q", h.Via())
	}
	if _, err := e.Install("bad", "SELECT uts FROM PKT", engine.InstallOptions{Via: testVia}); err == nil {
		t.Fatal("Via on a FROM PKT query accepted")
	}
	feed := &infiniteFeed{passEvery: 7}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	sub := h.Subscribe()
	waitRows(t, sub, 5)
	if h.RowsOut() < 5 {
		t.Fatalf("RowsOut = %d", h.RowsOut())
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	// The session is over: its subscriptions are closed.
	if _, ok := <-sub.C(); ok {
		// Buffered rows may remain; drain to the close.
		for range sub.C() {
		}
	}
}

func TestSessionRowsIterator(t *testing.T) {
	e, _ := engine.New(1024)
	h, err := e.Install("it", "SELECT srcIP FROM flows", engine.InstallOptions{Via: testVia})
	if err != nil {
		t.Fatal(err)
	}
	feed := &infiniteFeed{passEvery: 5}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := 0
	for range h.Rows(ctx) {
		if got++; got >= 10 {
			break
		}
	}
	if got != 10 {
		t.Fatalf("iterator yielded %d rows", got)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionDrainFlushesWindows(t *testing.T) {
	// An aggregating query holds an open window; Drain must flush it so
	// the subscriber sees the final partial window before close.
	e, _ := engine.New(1024)
	h, err := e.Install("agg", "SELECT tb, count(*) FROM flows GROUP BY time/1 as tb",
		engine.InstallOptions{Via: testVia, Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	feed := &infiniteFeed{passEvery: 3}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	sub := h.Subscribe()
	waitRows(t, sub, 2) // at least two closed windows while live
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	// Channel must close (session over), delivering any flush output first.
	for range sub.C() {
	}
}

func TestSessionOnRowFailureContained(t *testing.T) {
	e, _ := engine.New(1024)
	bad, err := e.Install("bad", "SELECT len FROM flows", engine.InstallOptions{
		Via:   testVia,
		OnRow: func(tuple.Tuple) error { return fmt.Errorf("subscriber exploded") },
	})
	if err != nil {
		t.Fatal(err)
	}
	good, err := e.Install("good", "SELECT len FROM flows", engine.InstallOptions{Via: testVia})
	if err != nil {
		t.Fatal(err)
	}
	feed := &infiniteFeed{passEvery: 5}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	sub := good.Subscribe()
	waitRows(t, sub, 10)
	if bad.Err() == nil {
		t.Fatal("failed query reports no error")
	}
	if good.Err() != nil {
		t.Fatalf("healthy query reports %v", good.Err())
	}
	if err := e.Drain(); err != nil {
		t.Fatalf("session died of a subscriber error: %v", err)
	}
	found := false
	for _, f := range e.Failures() {
		if f.Node == "bad" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no contained failure recorded for bad: %v", e.Failures())
	}
}

func TestSessionSetterGuards(t *testing.T) {
	e, _ := engine.New(1024)
	feed := &infiniteFeed{passEvery: 10}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	if err := e.SetOverload(overload.Config{}); err == nil {
		t.Error("SetOverload allowed mid-session")
	}
	if err := e.SetCollector(nil); err == nil {
		t.Error("SetCollector allowed mid-session")
	}
	if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: t.TempDir()}); err == nil {
		t.Error("SetCheckpoint allowed mid-session")
	}
	if err := e.SetProfiler(profile.New()); err == nil {
		t.Error("SetProfiler allowed mid-session")
	}
	if err := e.SetTracer(nil); err == nil {
		t.Error("SetTracer allowed mid-session")
	}
	if err := e.SetFaults(nil); err == nil {
		t.Error("SetFaults allowed mid-session")
	}
	// A second concurrent run is refused too.
	if err := e.Start(context.Background(), feed); err == nil {
		t.Error("second Start allowed")
	}
	if err := e.Run(trace.NewReplay(nil)); err == nil {
		t.Error("Run allowed mid-session")
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	// Idle again: setters work.
	if err := e.SetOverload(overload.Config{}); err != nil {
		t.Errorf("SetOverload after Drain: %v", err)
	}
	if err := e.SetTracer(nil); err != nil {
		t.Errorf("SetTracer after Drain: %v", err)
	}
}

func TestSessionTeardownLeaksNothing(t *testing.T) {
	// The serial pump owns every node: a full install/uninstall cycle and
	// drain must return the process to its starting goroutine count.
	before := runtime.NumGoroutine()
	e, _ := engine.New(1024)
	feed := &infiniteFeed{passEvery: 10}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("q%d", i)
		h, err := e.Install(name, "SELECT len FROM flows", engine.InstallOptions{Via: testVia})
		if err != nil {
			t.Fatal(err)
		}
		sub := h.Subscribe()
		waitRows(t, sub, 1)
		sub.Close()
	}
	for i := 0; i < 16; i++ {
		if err := e.Uninstall(fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.Nodes()); n != 0 {
		t.Fatalf("%d nodes leaked", n)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	// Goroutines wind down asynchronously; give them a moment.
	var after int
	for i := 0; i < 100; i++ {
		after = runtime.NumGoroutine()
		if after <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Fatalf("goroutines: %d before, %d after", before, after)
	}
}

func TestSessionStress1000Queries(t *testing.T) {
	// The acceptance bar: 1000 standing queries installed at runtime over
	// one shared live feed, all multiplexed onto a single low-level tap
	// (node count sublinear: 1 low-level node regardless of query count),
	// every subscriber receiving rows, uninstalls interleaved with the
	// running pump.
	const nq = 1000
	e, _ := engine.New(1024)
	feed := &infiniteFeed{passEvery: 50}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	// Installs run from 64 concurrent clients: commands batch up at each
	// pump boundary instead of costing one full ring cycle apiece, and the
	// race detector sees Install/Subscribe from many goroutines at once.
	handles := make([]*engine.QueryHandle, nq)
	subs := make([]*engine.Subscription, nq)
	var wg sync.WaitGroup
	var installErr atomic.Pointer[error]
	const workers = 64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nq; i += workers {
				h, err := e.Install(fmt.Sprintf("tenant%04d", i), "SELECT srcIP, len FROM flows",
					engine.InstallOptions{Via: testVia, Buffer: 16})
				if err != nil {
					installErr.Store(&err)
					return
				}
				handles[i] = h
				subs[i] = h.Subscribe()
			}
		}(w)
	}
	wg.Wait()
	if p := installErr.Load(); p != nil {
		t.Fatal(*p)
	}
	if e.TapCount() != 1 {
		t.Fatalf("tap count = %d, want 1 for %d queries", e.TapCount(), nq)
	}
	if n := len(e.Nodes()); n != nq+1 {
		t.Fatalf("node count = %d, want %d (one shared low-level node)", n, nq+1)
	}
	for i, sub := range subs {
		select {
		case _, ok := <-sub.C():
			if !ok {
				t.Fatalf("tenant %d closed early", i)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("tenant %d got no rows", i)
		}
	}
	// Churn: uninstall half while the pump keeps running, the rest stay
	// live.
	uninstallRange := func(start int) {
		t.Helper()
		var uerr atomic.Pointer[error]
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := start + 2*w; i < nq; i += 2 * workers {
					if err := e.Uninstall(fmt.Sprintf("tenant%04d", i)); err != nil {
						uerr.Store(&err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if p := uerr.Load(); p != nil {
			t.Fatal(*p)
		}
	}
	uninstallRange(0)
	if e.TapCount() != 1 {
		t.Fatalf("tap torn down while %d subscribers remain", nq/2)
	}
	select {
	case _, ok := <-subs[1].C():
		if !ok {
			t.Fatal("surviving tenant closed")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("surviving tenant starved after churn")
	}
	uninstallRange(1)
	if e.TapCount() != 0 || len(e.Nodes()) != 0 {
		t.Fatalf("taps=%d nodes=%d after full teardown", e.TapCount(), len(e.Nodes()))
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionPacedFeed(t *testing.T) {
	// A paced session admits packets on the wall clock; rows must still
	// reach subscribers promptly (the pump drains at the live edge rather
	// than waiting for a full ring).
	e, _ := engine.New(4096)
	h, err := e.Install("paced", "SELECT len FROM flows", engine.InstallOptions{Via: testVia})
	if err != nil {
		t.Fatal(err)
	}
	feed := &infiniteFeed{passEvery: 3}
	// 1ms of simulated time per packet at 1000x => ~1µs/packet pace.
	if err := e.StartWith(context.Background(), feed, engine.StartOptions{Speedup: 1000}); err != nil {
		t.Fatal(err)
	}
	sub := h.Subscribe()
	start := time.Now()
	waitRows(t, sub, 3)
	if time.Since(start) > 5*time.Second {
		t.Fatalf("paced delivery took %v", time.Since(start))
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionContextCancel(t *testing.T) {
	e, _ := engine.New(1024)
	if _, err := e.Install("q", "SELECT len FROM flows", engine.InstallOptions{Via: testVia}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	feed := &infiniteFeed{passEvery: 10}
	if err := e.Start(ctx, feed); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := e.Wait(); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if err := e.Drain(); err != context.Canceled {
		t.Fatalf("Drain = %v, want context.Canceled", err)
	}
}

func TestRunWrapperUnchanged(t *testing.T) {
	// The one-shot Run path must behave exactly as before the session API:
	// same rows in the same order for the same feed.
	build := func() (*engine.Engine, *[]int64) {
		e, _ := engine.New(4096)
		plan := mustPlan(t, "SELECT uts, len FROM PKT WHERE len >= 1500", trace.Schema())
		n, err := e.AddLowLevel("sel", plan)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		n.Subscribe(func(row tuple.Tuple) error {
			got = append(got, int64(row[0].AsUint()))
			return nil
		})
		return e, &got
	}
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 7, Duration: 0.5, Rate: 20000})
	pkts := trace.Collect(feed)
	e1, got1 := build()
	if err := e1.Run(trace.NewReplay(pkts)); err != nil {
		t.Fatal(err)
	}
	e2, got2 := build()
	if err := e2.Run(trace.NewReplay(pkts)); err != nil {
		t.Fatal(err)
	}
	if len(*got1) == 0 || len(*got1) != len(*got2) {
		t.Fatalf("row counts differ: %d vs %d", len(*got1), len(*got2))
	}
	for i := range *got1 {
		if (*got1)[i] != (*got2)[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	// A finished engine is idle again: setters and a second run work.
	if err := e1.SetOverload(overload.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := e1.Run(trace.NewReplay(pkts)); err != nil {
		t.Fatal(err)
	}
}

// TestSessionEndRacesInstall hammers Install/Uninstall against sessions
// that are ending: every call must come back — with a handle, or with
// ErrSessionClosed when its command was queued behind the pump's last
// boundary — and never wait for a reply nobody is left to send.
func TestSessionEndRacesInstall(t *testing.T) {
	const rounds, hammers = 60, 4
	for round := 0; round < rounds; round++ {
		e, err := engine.New(256)
		if err != nil {
			t.Fatal(err)
		}
		feed, err := trace.NewSteady(trace.SteadyConfig{Seed: uint64(round + 1), Duration: 0.02, Rate: 50000})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(context.Background(), feed); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < hammers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; e.SessionActive(); i++ {
					name := fmt.Sprintf("q%d_%d", g, i)
					_, err := e.Install(name, "SELECT time, len FROM PKT WHERE len > 1000", engine.InstallOptions{})
					if err == nil {
						err = e.Uninstall(name)
					}
					if err != nil && !errors.Is(err, engine.ErrSessionClosed) {
						t.Errorf("round %d: %v", round, err)
						return
					}
				}
			}(g)
		}
		returned := make(chan struct{})
		go func() { wg.Wait(); close(returned) }()
		select {
		case <-returned:
		case <-time.After(20 * time.Second):
			buf := make([]byte, 1<<16)
			t.Fatalf("round %d: Install/Uninstall still blocked 20 s after the session ended\n%s",
				round, buf[:runtime.Stack(buf, true)])
		}
		if err := e.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandOffDoesNotAllocatePerRow: a row's trip from a selection node to
// its subscribers — emitCols, deliver, offer — costs no allocation of its
// own. Two blocking tenants over one pass-through tap (gsqd's shape) take
// every row of a 120 k-packet stream; the whole session, set-up included,
// stays under 0.05 allocations per row per subscriber, where a tuple per
// row for the callback plus a clone per row per subscriber made it 2. The
// rows are still each subscriber's own: what a consumer keeps is never
// written again. Frame subscribers (gsqd's SSE handlers) are held to the
// same bound: their frames come back to the query's pool, so the copy
// per run allocates nothing once the pool holds a few.
func TestHandOffDoesNotAllocatePerRow(t *testing.T) {
	t.Run("frames", testFrameHandOffDoesNotAllocate)
	const rows, tenants, keepEvery = 120_000, 2, 500
	pkts := make([]trace.Packet, rows)
	for i := range pkts {
		pkts[i] = trace.Packet{Time: uint64(i) * uint64(time.Microsecond), SrcIP: uint32(i), DstIP: 7, Proto: 6, Len: uint16(i % 1400)}
	}
	e, _ := engine.New(1024)
	type kept struct{ row, copy tuple.Tuple }
	keeps := make([][]kept, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		h, err := e.Install(fmt.Sprintf("t%d", i), "SELECT time, srcIP, len, uts FROM tap",
			engine.InstallOptions{Via: "SELECT time, srcIP, len, uts FROM PKT", Block: true})
		if err != nil {
			t.Fatal(err)
		}
		sub := h.Subscribe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for row := range sub.C() {
				if n%keepEvery == 0 {
					keeps[i] = append(keeps[i], kept{row, row.Clone()})
				}
				n++
			}
			if n != rows {
				t.Errorf("tenant %d received %d rows, want %d", i, n, rows)
			}
		}()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := e.Start(context.Background(), sliceFeed(pkts)); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // the feed ends, the session with it, and the channels close
	runtime.ReadMemStats(&after)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	perRow := float64(after.Mallocs-before.Mallocs) / (rows * tenants)
	t.Logf("%d allocations over %d rows to %d subscribers: %.4f per row per subscriber",
		after.Mallocs-before.Mallocs, rows, tenants, perRow)
	if !raceEnabled && perRow > 0.05 {
		t.Errorf("%.3f allocations per row per subscriber, want <= 0.05", perRow)
	}
	for i, ks := range keeps {
		if len(ks) != rows/keepEvery {
			t.Errorf("tenant %d kept %d rows, want %d", i, len(ks), rows/keepEvery)
		}
		for j, k := range ks {
			if want := uint64(j * keepEvery); k.row.String() != k.copy.String() || k.row[1].AsUint() != want {
				t.Fatalf("tenant %d: row %d, kept while the stream ran on, now reads %v; it was %v (srcIP %d)",
					i, j*keepEvery, k.row, k.copy, want)
			}
		}
	}
}

func testFrameHandOffDoesNotAllocate(t *testing.T) {
	const rows, tenants = 120_000, 2
	pkts := make([]trace.Packet, rows)
	for i := range pkts {
		pkts[i] = trace.Packet{Time: uint64(i) * uint64(time.Microsecond), SrcIP: uint32(i), DstIP: 7, Proto: 6, Len: uint16(i % 1400)}
	}
	e, _ := engine.New(1024)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		h, err := e.Install(fmt.Sprintf("t%d", i), "SELECT time, srcIP, len, uts FROM tap",
			engine.InstallOptions{Via: "SELECT time, srcIP, len, uts FROM PKT", Block: true})
		if err != nil {
			t.Fatal(err)
		}
		sub := h.SubscribeFrames()
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			frames := make([]engine.Frame, 0, 64)
			for open := true; open; {
				<-sub.Ready()
				frames, open = sub.TakeFrames(frames[:0])
				for _, f := range frames {
					if ip := f.Cols()[1].Bits()[f.Lo]; ip != uint64(n) {
						t.Errorf("tenant %d: row %d is packet %d", i, n, ip)
					}
					n += f.Len()
					f.Release()
				}
			}
			if n != rows {
				t.Errorf("tenant %d received %d rows, want %d", i, n, rows)
			}
		}()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := e.Start(context.Background(), sliceFeed(pkts)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	perRow := float64(after.Mallocs-before.Mallocs) / (rows * tenants)
	t.Logf("%d allocations over %d rows to %d frame subscribers: %.4f per row per subscriber",
		after.Mallocs-before.Mallocs, rows, tenants, perRow)
	if !raceEnabled && perRow > 0.05 {
		t.Errorf("%.3f allocations per row per subscriber, want <= 0.05", perRow)
	}
}

// TestFlushHandOffDoesNotAllocatePerRow: a window's sample leaves an
// aggregating node as columns too. The node below has every kind of reader
// — a node subscriber, an OnRow callback and a Subscription — and what a
// longer stream adds per emitted row is the Subscription's share of a slab
// (1/256) and nothing else, where a tuple per emitted group made it more
// than 1.
func TestFlushHandOffDoesNotAllocatePerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const groups = 1000
	run := func(windows int) (mallocs uint64, emitted int64) {
		pkts := make([]trace.Packet, 0, windows*groups)
		for w := 0; w < windows; w++ {
			for g := 0; g < groups; g++ {
				pkts = append(pkts, trace.Packet{Time: uint64(w)*uint64(time.Second) + uint64(g), SrcIP: uint32(g), Proto: 6, Len: 100})
			}
		}
		e, _ := engine.New(1024)
		var onRow int64
		h, err := e.Install("agg", "SELECT tb, srcIP, sum(len) AS bytes, count(*) AS cnt FROM tap GROUP BY time/1 AS tb, srcIP",
			engine.InstallOptions{Via: "SELECT time, srcIP, len FROM PKT", Block: true,
				OnRow: func(row tuple.Tuple) error { onRow += row[3].AsInt(); return nil }})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.AddHighLevel("down", h.Node(), mustPlan(t, "SELECT tb, srcIP FROM agg WHERE cnt > 1", h.Node().Schema())); err != nil {
			t.Fatal(err)
		}
		sub := h.Subscribe()
		received := make(chan int64)
		go func() {
			var n int64
			for range sub.C() {
				n++
			}
			received <- n
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.Start(context.Background(), sliceFeed(pkts)); err != nil {
			t.Fatal(err)
		}
		emitted = <-received // the feed ends, the session with it, and the channel closes
		runtime.ReadMemStats(&after)
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if want := int64(windows * groups); emitted != want || onRow != want || h.Node().Stats().TuplesOut != want {
			t.Fatalf("%d windows: subscription took %d rows, OnRow %d, the node emitted %d; want %d",
				windows, emitted, onRow, h.Node().Stats().TuplesOut, want)
		}
		return after.Mallocs - before.Mallocs, emitted
	}
	short, shortRows := run(10)
	long, longRows := run(110)
	perRow := (float64(long) - float64(short)) / float64(longRows-shortRows)
	t.Logf("%d allocations over %d emitted rows, %d over %d: %.4f per row more", short, shortRows, long, longRows, perRow)
	if perRow > 0.05+1.0/256 {
		t.Errorf("%.3f allocations per emitted row, want <= 0.05 beyond the slab's 1/256", perRow)
	}
}

// TestQueryDroppedCountsEverySubscription: a query's Dropped counts the
// rows lost by every subscription it has had, of either form, and never
// goes backwards: the losses of a subscription its consumer closed
// mid-session, of those an uninstall ended and of those the session's end
// ended all stay counted.
func TestQueryDroppedCountsEverySubscription(t *testing.T) {
	e, _ := engine.New(1024)
	if err := e.Start(context.Background(), &infiniteFeed{passEvery: 1}); err != nil {
		t.Fatal(err)
	}
	subs := map[string][]*engine.Subscription{}
	handles := map[string]*engine.QueryHandle{}
	for _, name := range []string{"closed", "uninstalled", "ended"} {
		h, err := e.Install(name, "SELECT srcIP, len FROM flows", engine.InstallOptions{Via: testVia, Buffer: 1})
		if err != nil {
			t.Fatal(err)
		}
		handles[name] = h
		subs[name] = []*engine.Subscription{h.Subscribe(), h.SubscribeFrames()} // never read
	}
	deadline := time.Now().Add(10 * time.Second)
	for name, ss := range subs {
		for _, s := range ss {
			for s.Dropped() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%s: a subscription lost no row", name)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	closed := handles["closed"]
	for _, s := range subs["closed"] {
		before := closed.Dropped()
		s.Close()
		if after := closed.Dropped(); after < before {
			t.Errorf("Dropped went from %d to %d when a subscription closed", before, after)
		}
	}
	if err := e.Uninstall("uninstalled"); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	for name, h := range handles {
		var want uint64
		for _, s := range subs[name] {
			want += s.Dropped()
		}
		if got := h.Dropped(); got != want {
			t.Errorf("%s: query Dropped %d, its subscriptions lost %d", name, got, want)
		}
	}
}
