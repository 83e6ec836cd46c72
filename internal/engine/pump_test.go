package engine_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/trace"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
)

// The pump (pump.go) is the one place a run takes packets from: these
// tests pin what Run, a session and RunParallel's producer must agree on
// because they share it — source-gate accounting under every policy, a
// pacer that sleeps and can be cancelled mid-wait, and the stream clock.

var updatePumpGolden = flag.Bool("update-pump-golden", false,
	"rewrite testdata/pump_golden.json from this run")

// seqFeed stamps each packet's destIP with its position in the stream, so a
// pass-through node's output rows name the ring index of every packet.
type seqFeed struct {
	inner trace.Feed
	n     uint32
}

func (f *seqFeed) Next() (trace.Packet, bool) {
	p, ok := f.inner.Next()
	p.DstIP = f.n
	f.n++
	return p, ok
}

// TestPumpGolden pins what the serial loop's pump and source gate decide,
// packet by packet, in Run and in a session under every admission policy,
// with and without burst and stall injection, untraced and traced 1 in 97:
// the output rows of every node, NodeStats, the source gate's counters, the
// ring's, and each trace's events and disposition with the ring index of
// its packet. testdata/pump_golden.json holds one digest per case, recorded
// when the pump still took one packet per call; a batching pump must make
// the same admission draws against the same occupancies and keep every
// packet's FIFO position.
func TestPumpGolden(t *testing.T) {
	const golden = "testdata/pump_golden.json"
	var want map[string]string
	if !*updatePumpGolden {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, mode := range []string{"run", "session"} {
		for _, pol := range []overload.Policy{overload.DropTail, overload.ShedSample, overload.Block} {
			for _, inject := range []string{"", "burst:300@0.2,stall:1ms@0.2"} {
				for _, every := range []int{0, 97} {
					name := fmt.Sprintf("%s/%s/inject=%t/trace=%d", mode, pol, inject != "", every)
					t.Run(name, func(t *testing.T) {
						got[name] = pumpDigest(t, mode == "session", pol, inject, every)
						if want != nil && got[name] != want[name] {
							t.Errorf("digest %s, golden %s", got[name], want[name])
						}
					})
				}
			}
		}
	}
	if *updatePumpGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// pumpDigest runs one TestPumpGolden case and hashes what it pins.
func pumpDigest(t *testing.T, session bool, pol overload.Policy, inject string, every int) string {
	e, _ := buildSamplingPipeline(t, 512)
	e.SetOverload(overload.Config{Policy: pol, UpdateEvery: 16, Seed: 3})
	if inject != "" {
		f, err := overload.ParseFaults(inject, 7)
		if err != nil {
			t.Fatal(err)
		}
		e.SetFaults(f)
	}
	var tr *tracing.Tracer
	if every > 0 {
		tr = tracing.New(tracing.Config{Every: every, Seed: 11, MaxSpans: 1 << 20})
		e.SetTracer(tr)
	}
	h := sha256.New()
	// The pass-through node "sel" sees every packet the ring accepted, in
	// ring order; its destIP column is the packet's stream position.
	var ringOrder []uint32
	for i, n := range e.Nodes() {
		name := n.Stats().Name
		n.Subscribe(func(row tuple.Tuple) error {
			if i == 0 {
				ringOrder = append(ringOrder, uint32(row[2].Uint()))
			}
			fmt.Fprintln(h, name, row)
			return nil
		})
	}
	steady, err := trace.NewSteady(trace.SteadyConfig{Seed: 21, Duration: 1, Rate: 12000})
	if err != nil {
		t.Fatal(err)
	}
	feed := &seqFeed{inner: steady}
	if session {
		if err := e.Start(context.Background(), feed); err != nil {
			t.Fatal(err)
		}
		err = e.Wait()
	} else {
		err = e.Run(feed)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range e.Nodes() {
		st := n.Stats()
		fmt.Fprintf(h, "node %s in=%d out=%d op=%+v\n", st.Name, st.TuplesIn, st.TuplesOut, st.Operator)
	}
	g := snapshotByRing(e.Overload())["source/0"]
	fmt.Fprintf(h, "gate offered=%d admitted=%d shed=%d dropped=%d\n", g.Offered, g.Admitted, g.Shed, g.Dropped)
	fmt.Fprintf(h, "ring pushed=%d drops=%d packets=%d duration=%v\n", e.RingPushed(), e.Drops(), e.Packets(), e.StreamDuration())
	if pol == overload.ShedSample && g.Shed == 0 {
		t.Errorf("shed-sample shed nothing: the case pins no admission draw")
	}
	if tr != nil {
		hashTraces(t, h, tr, ringOrder)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashTraces writes every trace event but its wall-clock fields, then each
// trace's disposition with the ring index of its packet (-1: it never
// reached the ring).
func hashTraces(t *testing.T, h io.Writer, tr *tracing.Tracer, ringOrder []uint32) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []tracing.Event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	ringIdx := make(map[uint32]int, len(ringOrder))
	for i, seq := range ringOrder {
		ringIdx[seq] = i
	}
	traced := 0
	for _, ev := range events {
		if ev.Ph == "M" {
			continue
		}
		var kv []string
		for k, v := range ev.Args {
			if k != "wait_us" {
				kv = append(kv, fmt.Sprintf("%s=%v", k, v))
			}
		}
		sort.Strings(kv)
		fmt.Fprintf(h, "trace %d %s %s\n", ev.TID, ev.Name, strings.Join(kv, " "))
		if ev.Name == "disposition" {
			traced++
			seq := uint32(ev.Args["seq"].(float64))
			idx, ok := ringIdx[seq]
			if !ok {
				idx = -1
			}
			fmt.Fprintf(h, "trace %d seq=%d ring=%d %v\n", ev.TID, seq, idx, ev.Args["disposition"])
		}
	}
	if traced == 0 {
		t.Errorf("no trace finished: the case pins no trace")
	}
}

// TestRunSourceGateAccounting: the serial loop offers every packet through
// the source ring's gate, so the accounting invariants hold on Run under
// every policy — block included, which never waits there (the fill loop
// guarantees room) but counts what it was offered.
func TestRunSourceGateAccounting(t *testing.T) {
	for _, pol := range []overload.Policy{overload.DropTail, overload.ShedSample, overload.Block} {
		t.Run(pol.String(), func(t *testing.T) {
			e, err := engine.New(512)
			if err != nil {
				t.Fatal(err)
			}
			e.SetOverload(overload.Config{Policy: pol, UpdateEvery: 16, Seed: 3})
			sel, err := e.AddLowLevel("sel", mustPlan(t, "SELECT time, len FROM PKT", trace.Schema()))
			if err != nil {
				t.Fatal(err)
			}
			feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 21, Duration: 0.25, Rate: 40000})
			if err := e.Run(feed); err != nil {
				t.Fatal(err)
			}
			s := snapshotByRing(e.Overload())["source/0"]
			if e.Packets() == 0 || s.Offered != uint64(e.Packets()) {
				t.Errorf("gate offered %d, engine counted %d packets", s.Offered, e.Packets())
			}
			if s.Offered != s.Admitted+s.Shed {
				t.Errorf("offered %d != admitted %d + shed %d", s.Offered, s.Admitted, s.Shed)
			}
			if got := uint64(sel.Stats().TuplesIn) + s.Dropped; got != s.Admitted {
				t.Errorf("consumed %d + dropped %d = %d, want admitted %d", sel.Stats().TuplesIn, s.Dropped, got, s.Admitted)
			}
		})
	}
}

// TestPacedRunParallelSleeps: waiting for a paced packet to come due must
// not cost a core. A real-time replay of a light feed leaves the producer
// and the node's worker idle nearly all of the time.
func TestPacedRunParallelSleeps(t *testing.T) {
	cpu0, ok := processCPU()
	if !ok {
		t.Skip("no process CPU clock on this platform")
	}
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddLowLevel("sel", mustPlan(t, "SELECT time, len FROM PKT", trace.Schema())); err != nil {
		t.Fatal(err)
	}
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 5, Duration: 0.3, Rate: 2000})
	start := time.Now()
	if err := e.RunParallel(feed, 1); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	cpu1, _ := processCPU()
	if wall < 250*time.Millisecond {
		t.Fatalf("a 0.3 s feed at speedup 1 took %v: not paced", wall)
	}
	cpu := cpu1 - cpu0
	t.Logf("%v of CPU over %v of wall time", cpu, wall)
	if cpu > wall/2 {
		t.Errorf("paced RunParallel used %v of CPU over %v of wall time, want less than half: something spins while waiting", cpu, wall)
	}
}

// gapFeed yields one packet, then packets a minute of stream time apart: at
// speedup 1 the pacer is waiting whenever the test looks.
type gapFeed struct{ n uint64 }

func (f *gapFeed) Next() (trace.Packet, bool) {
	f.n++
	return trace.Packet{Time: f.n * uint64(time.Minute), SrcIP: 0x0a000001, Proto: 6, Len: 1500}, true
}

// TestCancelDuringPacingWait: a cancellation that arrives while the pacer
// is waiting for a packet far in the stream's future ends the run at once,
// in both paced modes.
func TestCancelDuringPacingWait(t *testing.T) {
	cancelled := func(t *testing.T, cancel context.CancelFunc, wait func() error) {
		t.Helper()
		time.Sleep(30 * time.Millisecond)
		start := time.Now()
		cancel()
		err := watchdog(t, 10*time.Second, wait)
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("returned %v after cancel, want <= 100ms", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("returned %v, want context.Canceled", err)
		}
	}
	t.Run("RunParallel", func(t *testing.T) {
		e, _ := engine.New(1024)
		if _, err := e.AddLowLevel("sel", mustPlan(t, "SELECT time, len FROM PKT", trace.Schema())); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errCh := make(chan error, 1)
		go func() { errCh <- e.RunParallelContext(ctx, &gapFeed{}, 1) }()
		cancelled(t, cancel, func() error { return <-errCh })
	})
	t.Run("session", func(t *testing.T) {
		e, _ := engine.New(1024)
		if _, err := e.Install("q", "SELECT len FROM flows", engine.InstallOptions{Via: testVia}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := e.StartWith(ctx, &gapFeed{}, engine.StartOptions{Speedup: 1}); err != nil {
			t.Fatal(err)
		}
		cancelled(t, cancel, e.Wait)
	})
}

// TestStreamClockAgreesAcrossModes: the same replay ends with the same
// packet count and stream duration whichever mode pumped it.
func TestStreamClockAgreesAcrossModes(t *testing.T) {
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 8, Duration: 0.5, Rate: 20000})
	pkts := trace.Collect(feed)
	build := func() *engine.Engine {
		e, _ := engine.New(1024)
		if _, err := e.Install("q", "SELECT time, len FROM PKT", engine.InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	run := build()
	if err := run.Run(trace.NewReplay(pkts)); err != nil {
		t.Fatal(err)
	}
	if run.Packets() != int64(len(pkts)) || run.StreamDuration() <= 0 {
		t.Fatalf("Run: %d packets over %v, want %d over a positive duration", run.Packets(), run.StreamDuration(), len(pkts))
	}
	sess := build()
	if err := sess.Start(context.Background(), trace.NewReplay(pkts)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	par := build()
	if err := par.RunParallel(trace.NewReplay(pkts), 0); err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*engine.Engine{"session": sess, "RunParallel": par} {
		if e.Packets() != run.Packets() || e.StreamDuration() != run.StreamDuration() {
			t.Errorf("%s: %d packets over %v, Run: %d over %v",
				name, e.Packets(), e.StreamDuration(), run.Packets(), run.StreamDuration())
		}
	}
}

// stallFeed is an endless unpaced feed the test can stall: Next blocks
// while mu is held, with the pump in the middle of a batch. destIP is the
// packet's stream position.
type stallFeed struct {
	mu sync.Mutex
	n  uint32
}

func (f *stallFeed) Next() (trace.Packet, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	return trace.Packet{Time: uint64(f.n) * uint64(time.Microsecond), DstIP: f.n - 1, Proto: 6, Len: 100}, true
}

// TestSessionCommandLatency: an unpaced pump polls its context, Drain and
// the command queue once per batch, so a command waits at most for the
// batch in hand and the ring fill behind it. Each command is posted with
// the feed stalled under the pump mid-batch: an installed query's first
// packet is then at most a ring and a batch past Packets() at the call,
// and Drain stops the pump within a batch.
func TestSessionCommandLatency(t *testing.T) {
	const batch = 512
	e, _ := engine.New(1024)
	feed := &stallFeed{}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	// post runs cmd on its own goroutine with the feed stalled until cmd has
	// had time to queue, waits for it, and returns Packets() at the call.
	post := func(cmd func()) int64 {
		time.Sleep(5 * time.Millisecond)
		feed.mu.Lock()
		at := e.Packets()
		done := make(chan struct{})
		go func() {
			defer close(done)
			cmd()
		}()
		time.Sleep(20 * time.Millisecond)
		feed.mu.Unlock()
		watchdog(t, 10*time.Second, func() error { <-done; return nil })
		return at
	}
	for i := range 5 {
		name := fmt.Sprintf("q%d", i)
		first := make(chan uint64, 1)
		at := post(func() {
			_, err := e.Install(name, "SELECT destIP FROM PKT", engine.InstallOptions{OnRow: func(row tuple.Tuple) error {
				select {
				case first <- row[0].Uint():
				default:
				}
				return nil
			}})
			if err != nil {
				t.Error(err)
			}
		})
		var pos uint64
		watchdog(t, 10*time.Second, func() error { pos = <-first; return nil })
		if limit := uint64(at) + uint64(e.RingCap()) + batch; pos > limit {
			t.Errorf("install %d: first packet %d, want <= %d (Packets() %d at the call + ring %d + batch %d)",
				i, pos, limit, at, e.RingCap(), batch)
		}
		if err := e.Uninstall(name); err != nil {
			t.Fatal(err)
		}
	}
	at := post(func() {
		if err := e.Drain(); err != nil {
			t.Error(err)
		}
	})
	if taken := e.Packets() - at; taken > batch {
		t.Errorf("pump took %d packets after Drain was called, want <= %d", taken, batch)
	}
}

// TestSessionCommandsCannotStarveFeed churns Install and Uninstall back to
// back, with no sleep, under a fixed budget of commands, and makes every
// boundary that applies a command wait (SetAfterBoundary) until the churn
// has queued its next one: the schedule under which a pump that held for
// any queued command never took another packet. Counted, not timed: after
// each such boundary at least one batch must move before the next one,
// while the feed has packets, and the run must end with the feed drained.
func TestSessionCommandsCannotStarveFeed(t *testing.T) {
	const budget = 40
	pkts := foldPackets(60000, 4, 50, 9, -1) // more than budget batches: the churn ends first
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install("base", "SELECT time, len FROM PKT", engine.InstallOptions{}); err != nil {
		t.Fatal(err)
	}
	var churned atomic.Bool
	var marks []int64 // Packets() at each boundary that applied commands
	e.SetAfterBoundary(func() {
		marks = append(marks, e.Packets())
		for e.QueuedCommands() == 0 && !churned.Load() {
			runtime.Gosched()
		}
	})
	// The feed gives its first packet once the churn has queued a command
	// (or finished), so the run cannot end before the churn starts.
	feed := &openingFeed{inner: sliceFeed(pkts), open: func() bool { return e.QueuedCommands() > 0 || churned.Load() }}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	churnErr := make(chan error, 1)
	go func() {
		defer churned.Store(true)
		for i := 0; i < budget; i += 2 {
			name := fmt.Sprintf("churn%d", i%4)
			if _, err := e.Install(name, "SELECT time FROM PKT", engine.InstallOptions{Buffer: 64}); err != nil {
				churnErr <- err
				return
			}
			if err := e.Uninstall(name); err != nil {
				churnErr <- err
				return
			}
		}
		churnErr <- nil
	}()
	if err := <-churnErr; err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	total := int64(len(pkts))
	if got := e.Packets(); got != total {
		t.Fatalf("run ended at packet %d of %d", got, total)
	}
	if len(marks) == 0 {
		t.Fatal("no boundary applied a command")
	}
	starved := 0
	for k, at := range append(marks, total) {
		if k > 0 && marks[k-1] < total && at == marks[k-1] {
			starved++
		}
	}
	if starved > 0 {
		t.Fatalf("%d of %d command boundaries were followed by no batch (packets at each: %v)", starved, len(marks), marks)
	}
}

// openingFeed is inner once open has reported true.
type openingFeed struct {
	inner  trace.Feed
	open   func() bool
	opened bool
}

func (f *openingFeed) Next() (trace.Packet, bool) {
	for !f.opened {
		f.opened = f.open()
		runtime.Gosched()
	}
	return f.inner.Next()
}
