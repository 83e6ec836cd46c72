package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/trace"
)

// Frame subscriptions (SubscribeFrames): the contract the Buffer and
// overflow-policy tests below hold them to, row for row.

const (
	frameVia   = "SELECT time, srcIP, len FROM PKT WHERE proto = 6"
	frameQuery = "SELECT time, srcIP FROM tap"
)

// framePkts is n selected packets; packet i's srcIP is i, so a row says
// which one it is.
func framePkts(n int) []trace.Packet {
	pkts := make([]trace.Packet, n)
	for i := range pkts {
		pkts[i] = trace.Packet{Time: uint64(i) * uint64(time.Microsecond), SrcIP: uint32(i), Proto: 6, Len: 100}
	}
	return pkts
}

// frameRows appends the srcIPs of every row of frames.
func frameRows(dst []uint64, frames []engine.Frame) []uint64 {
	for _, f := range frames {
		ips := f.Cols()[1].Bits()
		dst = append(dst, ips[f.Lo:f.Hi]...)
	}
	return dst
}

// installFrames installs frameQuery over frameVia with opts and subscribes
// to its frames.
func installFrames(t *testing.T, e *engine.Engine, opts engine.InstallOptions) (*engine.QueryHandle, *engine.Subscription) {
	t.Helper()
	opts.Via = frameVia
	h, err := e.Install("q", frameQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h, h.SubscribeFrames()
}

// consume takes frames until the stream ends, calling take with each
// take's frames before releasing them, and returns every row's srcIP.
func consume(sub *engine.Subscription, take func([]engine.Frame)) []uint64 {
	var rows []uint64
	var frames []engine.Frame
	for open := true; open; {
		<-sub.Ready()
		frames, open = sub.TakeFrames(frames[:0])
		if take != nil {
			take(frames)
		}
		rows = frameRows(rows, frames)
		for _, f := range frames {
			f.Release()
		}
	}
	return rows
}

// checkSequence fails unless rows are first, first+1, ..., first+n-1.
func checkSequence(t *testing.T, what string, rows []uint64, first, n int) {
	t.Helper()
	if len(rows) != n {
		t.Fatalf("%s: %d rows, want %d", what, len(rows), n)
	}
	for i, ip := range rows {
		if ip != uint64(first+i) {
			t.Fatalf("%s: row %d is packet %d, want %d", what, i, ip, first+i)
		}
	}
}

// TestFrameSubscriptionBlockDeliversEveryRow: under Block every admitted
// row arrives, in order, and no take ever holds more than Buffer rows —
// the frames are cut to fit — whether Buffer is below, at or above the
// frame cap.
func TestFrameSubscriptionBlockDeliversEveryRow(t *testing.T) {
	const n = 20_000
	for _, buf := range []int{1, 8, 256, 1000} {
		t.Run(fmt.Sprint(buf), func(t *testing.T) {
			e, _ := engine.New(1024)
			h, sub := installFrames(t, e, engine.InstallOptions{Block: true, Buffer: buf})
			got := make(chan []uint64)
			var over atomic.Int64
			go func() {
				got <- consume(sub, func(frames []engine.Frame) {
					rows := 0
					for _, f := range frames {
						rows += f.Len()
					}
					if rows > buf {
						over.Store(int64(rows))
					}
				})
			}()
			if err := e.Start(context.Background(), sliceFeed(framePkts(n))); err != nil {
				t.Fatal(err)
			}
			rows := <-got
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			if o := over.Load(); o > 0 {
				t.Errorf("a take held %d rows, Buffer is %d", o, buf)
			}
			checkSequence(t, "received", rows, 0, n)
			if h.RowsOut() != n || sub.Dropped() != 0 {
				t.Errorf("RowsOut %d, Dropped %d; want %d, 0", h.RowsOut(), sub.Dropped(), n)
			}
		})
	}
}

// TestFrameSubscriptionDropOldestKeepsNewest: a drop-oldest subscriber
// that never reads ends up with exactly the newest Buffer rows, in order —
// eviction cuts into frames where Buffer is not a multiple of them — and
// every other admitted row is counted lost.
func TestFrameSubscriptionDropOldestKeepsNewest(t *testing.T) {
	const n = 10_000
	for _, buf := range []int{1, 37, 100, 1000} {
		t.Run(fmt.Sprint(buf), func(t *testing.T) {
			e, _ := engine.New(1024)
			h, sub := installFrames(t, e, engine.InstallOptions{Buffer: buf})
			if err := e.Start(context.Background(), sliceFeed(framePkts(n))); err != nil {
				t.Fatal(err)
			}
			if err := e.Wait(); err != nil {
				t.Fatal(err)
			}
			rows := consume(sub, nil)
			checkSequence(t, "kept", rows, n-buf, buf)
			if got := uint64(len(rows)) + sub.Dropped(); got != uint64(h.RowsOut()) || h.RowsOut() != n {
				t.Errorf("received %d + dropped %d = %d, admitted %d, want %d", len(rows), sub.Dropped(), got, h.RowsOut(), n)
			}
		})
	}
}

// TestHeldFrameNeverChanges: a frame the consumer holds is not written
// while the stream runs on and recycles the frames released around it —
// the other subscriber's included.
func TestHeldFrameNeverChanges(t *testing.T) {
	const n = 30_000
	e, _ := engine.New(1024)
	h, holder := installFrames(t, e, engine.InstallOptions{Block: true, Buffer: 64})
	other := h.SubscribeFrames()
	type held struct {
		f    engine.Frame
		rows []uint64
	}
	heldc := make(chan []held)
	go func() {
		var hs []held
		var frames []engine.Frame
		for open, i := true, 0; open; {
			<-holder.Ready()
			frames, open = holder.TakeFrames(frames[:0])
			for _, f := range frames {
				if i++; i%20 == 0 {
					hs = append(hs, held{f, frameRows(nil, []engine.Frame{f})})
					continue
				}
				f.Release()
			}
		}
		heldc <- hs
	}()
	otherc := make(chan []uint64)
	go func() { otherc <- consume(other, nil) }()
	if err := e.Start(context.Background(), sliceFeed(framePkts(n))); err != nil {
		t.Fatal(err)
	}
	hs := <-heldc
	checkSequence(t, "the other subscriber", <-otherc, 0, n)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(hs) < 10 {
		t.Fatalf("held %d frames, want at least 10", len(hs))
	}
	for i, h := range hs {
		now := frameRows(nil, []engine.Frame{h.f})
		if fmt.Sprint(now) != fmt.Sprint(h.rows) {
			t.Fatalf("held frame %d changed while held:\n was %v\n now %v", i, h.rows, now)
		}
		checkSequence(t, "a held frame", now, int(now[0]), h.f.Len())
		h.f.Release()
	}
}

// TestDeadBlockFrameSubscriberDetached: a Block subscriber that never
// reads, on a query with DetachAfter, is detached once it has lost that
// many rows, and the pump stalls on it once per frame — a few frames of
// detachWait — rather than once per row, which would be seconds here.
func TestDeadBlockFrameSubscriberDetached(t *testing.T) {
	const n, buf, detachAfter = 5000, 64, 1000
	e, _ := engine.New(1024)
	h, sub := installFrames(t, e, engine.InstallOptions{Block: true, Buffer: buf,
		Quota: overload.Quota{DetachAfter: detachAfter}})
	start := time.Now()
	if err := e.Start(context.Background(), sliceFeed(framePkts(n))); err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	stall := time.Since(start)
	if !sub.Detached() || h.DetachedSubs() != 1 || h.Subscribers() != 0 {
		t.Fatalf("Detached %v, DetachedSubs %d, Subscribers %d; want true, 1, 0", sub.Detached(), h.DetachedSubs(), h.Subscribers())
	}
	if lost := sub.Dropped(); lost < detachAfter || lost >= detachAfter+buf {
		t.Errorf("lost %d rows before the detach, want [%d, %d)", lost, detachAfter, detachAfter+buf)
	}
	// The stream ends after the rows queued before the subscriber fell
	// behind: the first Buffer rows.
	checkSequence(t, "queued", consume(sub, nil), 0, buf)
	if stall > time.Second {
		t.Errorf("the session took %v over a dead subscriber; a wait per frame is ~%v", stall, 20*2*time.Millisecond)
	}
}

// throttledFeed hands out its packets, then unselected ones a few at a
// time until stopped: a tap that goes quiet while the pump keeps reaching
// boundaries, where Uninstall is applied.
type throttledFeed struct {
	pkts []trace.Packet
	stop atomic.Bool
	t    uint64
}

func (f *throttledFeed) Next() (trace.Packet, bool) {
	if len(f.pkts) > 0 {
		p := f.pkts[0]
		f.pkts = f.pkts[1:]
		f.t = p.Time
		return p, true
	}
	if f.stop.Load() {
		return trace.Packet{}, false
	}
	time.Sleep(20 * time.Microsecond)
	f.t += uint64(time.Microsecond)
	return trace.Packet{Time: f.t, Proto: 17}, true
}

// TestFrameStreamEnds: an uninstall, a drain and a detach (above) end a
// frame stream after the rows queued on it, which the consumer still
// takes, and wake a consumer that waits with nothing queued; a Close ends
// it at once and gives back what was queued. None of them leaves a
// goroutine behind.
func TestFrameStreamEnds(t *testing.T) {
	const n, buf = 3000, 100
	before := runtime.NumGoroutine()
	for _, end := range []string{"uninstall", "drain", "close"} {
		t.Run(end, func(t *testing.T) {
			e, _ := engine.New(1024)
			h, sub := installFrames(t, e, engine.InstallOptions{Buffer: buf})
			feed := &throttledFeed{pkts: framePkts(n)}
			defer feed.stop.Store(true)
			if err := e.Start(context.Background(), feed); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); h.RowsOut() < n; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the query delivered %d rows of %d", h.RowsOut(), n)
				}
			}
			// A consumer with nothing queued, waiting on Ready, is woken by
			// the end itself.
			idle := h.SubscribeFrames()
			want := buf
			switch end {
			case "uninstall":
				if err := e.Uninstall("q"); err != nil {
					t.Fatal(err)
				}
			case "drain":
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
			case "close":
				sub.Close()
				idle.Close()
				want = 0
			}
			if end != "close" {
				select {
				case <-idle.Ready():
				case <-time.After(5 * time.Second):
					t.Fatal("a waiting consumer was not woken by the " + end)
				}
			}
			if frames, open := idle.TakeFrames(nil); open || len(frames) != 0 {
				t.Fatalf("the idle subscriber after the %s: %d frames, open %v", end, len(frames), open)
			}
			frames, open := sub.TakeFrames(nil)
			if open {
				t.Fatal("the stream is still open after the " + end)
			}
			checkSequence(t, "taken after the "+end, frameRows(nil, frames), n-want, want)
			for _, f := range frames {
				f.Release()
			}
			if h.Subscribers() != 0 {
				t.Errorf("%d subscribers left after the %s", h.Subscribers(), end)
			}
			feed.stop.Store(true)
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
